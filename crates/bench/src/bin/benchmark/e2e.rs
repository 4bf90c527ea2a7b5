//! The end-to-end pass: what a user of the simulator waits for.
//!
//! Closed loop, one client, one thread: every call starts after the
//! previous one returns. A run repeats *rounds* until `--seconds` have
//! passed. A round times the host-speed [`Reference`], then generates
//! the workload's input afresh, simulates it, and builds its paper
//! comparison, timing each phase separately from outside through the
//! public API. Short rounds spread every phase over the whole window, so
//! a slow spell on the host cannot land on one phase alone. The first
//! round is a warm-up.
//!
//! Each metric is the median of its phase's rounds, scaled by the
//! reference: multiplied by [`NOMINAL_S`] over the median of the
//! reference's rounds. On a shared host, other tenants slow whole runs;
//! the reference slows with them, so the scaled times repeat where the
//! raw ones do not (see the README's noise study). The raw medians and
//! the scale factor are kept in the notes.

use std::hint::black_box;
use std::time::Instant; // simaudit:allow(no-wall-clock): host time is what the end-to-end pass measures

use netsparse::prelude::*;

use crate::oracle;
use crate::reference::{Reference, NOMINAL_S};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::workload::Workload;

/// Timed rounds a run makes at least.
const MIN_TIMED: usize = 3;

/// The timed phases of a round, in metric order.
const PHASES: [&str; 3] = ["setup_s", "sim_s", "compare_s"];

/// Runs the end-to-end pass for `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64, scale: f64, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = None;
    // samples[phase]: seconds per timed round.
    let mut samples = vec![Vec::new(); PHASES.len()];
    let mut reference = Reference::new();
    let mut refs = Vec::new();
    let start = Instant::now(); // simaudit:allow(no-wall-clock): the run's measuring window is host time
    let mut round = 0;
    while samples[1].len() < MIN_TIMED || start.elapsed().as_secs_f64() < seconds {
        let (_, ref_s) = spans.time("reference", round, || black_box(reference.run()));
        let (inst, gen) = spans.time("setup.generate", round, || w.instance(seed, scale));
        let (res, sim) = spans.time("sim.run", round, || {
            try_simulate(&inst.cfg, black_box(&inst.wl))
        });
        out.tally(oracle::check(&res, digest));
        let cmp = res.ok().map(|r| {
            if digest.is_none() {
                digest = Some(oracle::report_digest(&r));
                out.note(
                    "input",
                    format!(
                        "{} nonzeros, {} events, comm_time {:.3} us",
                        inst.wl.total_nnz(),
                        r.events,
                        r.comm_time.as_us_f64()
                    ),
                );
            }
            spans
                .time("compare", round, || black_box(inst.compare(&r)))
                .1
        });
        if round > 0 {
            samples[0].push(gen);
            samples[1].push(sim);
            samples[2].extend(cmp);
            refs.push(ref_s);
        }
        round += 1;
    }

    let ref_median = Summary::of(&refs).median;
    let speed = NOMINAL_S / ref_median;
    out.note(
        "reference",
        format!(
            "median {ref_median:.6} s over {} rounds; host times scaled by {speed:.4}",
            refs.len()
        ),
    );
    for (name, s) in PHASES.iter().zip(&samples) {
        if s.is_empty() {
            out.failures.push(format!("{name}: no sample"));
            continue;
        }
        let s = Summary::of(s);
        out.push_host(name, s.median * speed, "s");
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.6}"));
        out.note(
            &format!("{name} rounds (raw)"),
            format!(
                "n {}, median {:.6}, q1 {:.6}, q3 {:.6}{tail}",
                s.n, s.median, s.q1, s.q3
            ),
        );
    }
    match stats::peak_rss_mib() {
        Some(mib) => out.push_host("peak_rss_mb", mib, "MiB"),
        None => out
            .failures
            .push("VmHWM unavailable in /proc/self/status".into()),
    }
    out.digest = digest.unwrap_or(0);
    out
}
