//! The per-layer pass (built with the `trace` feature).
//!
//! The input is simulated three times: untraced (the baseline for
//! `trace.overhead` and the counters every other pass must reproduce),
//! traced into a zero-capacity buffer (which counts the records the run
//! offers), and traced into a buffer of exactly that size, so no record
//! is dropped. Counters come from `SimReport` and the trace; the host
//! time of each layer comes from the replays in [`crate::layers`].

use std::hint::black_box;
use std::time::Instant; // simaudit:allow(no-wall-clock): replays share the run's host-time window

use netsparse::prelude::*;
use netsparse::try_simulate_traced;
use netsparse_desim::trace::{FlushReason, TraceEvent, TraceRecord};
use netsparse_desim::TraceConfig;

use crate::layers::{self, HoldModel, Inputs};
use crate::oracle;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::quantile;
use crate::workload::{Instance, Workload};

/// The paper's Table 7 row for the workload's matrix, as
/// `(F+C %, PRs per packet, cache hit %, traffic reduction x)`.
fn paper_table7(w: Workload) -> (f64, f64, f64, f64) {
    match w {
        Workload::UkFull | Workload::UkRigOnly => (61.0, 17.0, 30.0, 271.0),
        Workload::EuropeFull => (8.0, 4.5, 5.0, 188.0),
        Workload::ArabicExt => (97.0, 5.7, 26.0, 283.0),
    }
}

/// What the trace adds to the report.
#[derive(Default)]
struct TraceCounts {
    records: u64,
    dropped: u64,
    flush_full: u64,
    flush_expired: u64,
    flush_pressure: u64,
    link_packets: u64,
    backlog_high_water_ps: u64,
    /// Issue-to-completion times of RIG commands, picoseconds.
    cmd_latency_ps: Vec<u64>,
}

impl TraceCounts {
    fn add(&mut self, records: &[TraceRecord]) {
        // Last issue time per (node, unit): commands on one unit run one
        // at a time, so each completion closes the latest issue.
        let mut issued: std::collections::BTreeMap<(u32, u16), u64> = Default::default();
        for r in records {
            match r.event {
                TraceEvent::CmdIssued { unit, .. } => {
                    issued.insert((r.track.pid, unit), r.time.as_ps());
                }
                TraceEvent::CmdCompleted { unit } => {
                    if let Some(t0) = issued.remove(&(r.track.pid, unit)) {
                        self.cmd_latency_ps.push(r.time.as_ps() - t0);
                    }
                }
                TraceEvent::ConcatFlush { reason, .. } => match reason {
                    FlushReason::Full => self.flush_full += 1,
                    FlushReason::Expired => self.flush_expired += 1,
                    FlushReason::Pressure => self.flush_pressure += 1,
                    FlushReason::Drained | FlushReason::Bypass => {}
                },
                TraceEvent::LinkTx { backlog_ps, .. } => {
                    self.link_packets += 1;
                    self.backlog_high_water_ps = self.backlog_high_water_ps.max(backlog_ps);
                }
                _ => {}
            }
        }
    }
}

/// Runs the input untraced, then traced twice; returns the untraced
/// report with the untraced and traced host times.
fn simulate(
    inst: &Instance,
    spans: &mut Spans,
    out: &mut Outcome,
    counts: &mut TraceCounts,
) -> Option<(SimReport, f64, f64)> {
    let (plain, plain_s) = spans.time("sim.run", 0, || try_simulate(&inst.cfg, &inst.wl));
    out.tally(oracle::check(&plain, None));
    let plain = plain.ok()?;
    let digest = oracle::report_digest(&plain);

    let sizing = TraceConfig { capacity: 0 };
    let (probe, _) = spans.time("sim.trace_sizing", 0, || {
        try_simulate_traced(&inst.cfg, &inst.wl, sizing)
    });
    out.tally(oracle::check(&probe, Some(digest)));
    let offered = probe.ok()?.trace?.buffer.offered();

    let tcfg = TraceConfig {
        capacity: offered as usize,
    };
    let (traced, traced_s) = spans.time("sim.traced", 0, || {
        try_simulate_traced(&inst.cfg, &inst.wl, tcfg)
    });
    out.tally(oracle::check(&traced, Some(digest)));
    let trace = traced.ok()?.trace?;
    counts.records = trace.buffer.len() as u64;
    counts.dropped = trace.buffer.dropped();
    counts.add(trace.buffer.records());
    Some((plain, plain_s, traced_s))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the per-layer pass; layer replays share what is left of
/// `seconds` after the simulations.
pub fn run(w: Workload, seed: u64, seconds: f64, scale: f64, spans: &mut Spans) -> Outcome {
    let start = Instant::now(); // simaudit:allow(no-wall-clock): the run's measuring window is host time
    let mut out = Outcome::default();
    let (inst, _) = spans.time("setup.generate", 0, || w.instance(seed, scale));

    let mut counts = TraceCounts::default();
    let Some((r, plain_s, traced_s)) = simulate(&inst, spans, &mut out, &mut counts) else {
        out.failures.push("the input failed to simulate".into());
        return out;
    };
    if counts.dropped > 0 {
        out.failures
            .push(format!("trace dropped {} records", counts.dropped));
    }

    // Table 7 "-Trfc": tail SUOpt bytes over the tail node's received
    // wire bytes.
    let ((_, su_tail), _) = spans.time("compare", 0, || inst.compare(&r));
    let trfc = su_tail as f64 / r.tail().rx_wire_bytes.max(1) as f64;

    // Layer replays get an equal share of the remaining window.
    let left = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    let budget = left / 11.0;
    let inputs = Inputs::new(&inst);
    let per_op = |(pass_s, ops): (f64, u64)| ratio(pass_s * 1e9, ops as f64);
    let mut layer = |name: &'static str, pass: &mut dyn FnMut() -> u64| {
        let (s, ops) = layers::timed(spans, name, budget, pass);
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.6}"));
        out.note(
            name,
            format!(
                "{} passes of {ops} ops; pass s q1 {:.6}, median {:.6}, q3 {:.6}{tail}",
                s.n, s.q1, s.median, s.q3
            ),
        );
        (s.median, ops)
    };

    let (pattern_stats_s, _) = layer("layer.pattern_stats", &mut || {
        black_box(inst.wl.pattern_stats());
        1
    });
    let baselines = Baselines::for_line_rate(inst.cfg.link.bandwidth_bps / 1e9);
    let (su_s, _) = layer("layer.baselines_su", &mut || {
        black_box(baselines.su.kernel_comm_time(&inst.wl, inst.cfg.k));
        1
    });
    let (sa_s, _) = layer("layer.baselines_sa", &mut || {
        black_box(baselines.sa.kernel_comm_time(&inst.wl, inst.cfg.k));
        1
    });
    let empty = layers::empty_point(&inst);
    let mut empty_verdicts = Vec::new();
    let (empty_s, _) = layer("layer.empty_point", &mut || {
        empty_verdicts.push(oracle::check(&try_simulate(&inst.cfg, &empty), None));
        1
    });
    let mut hold_1k = HoldModel::new(1 << 10, seed);
    let hold_1k_ns = per_op(layer("layer.desim_1k", &mut || hold_1k.run(1 << 20)));
    let mut hold_64k = HoldModel::new(1 << 16, seed);
    let hold_64k_ns = per_op(layer("layer.desim_64k", &mut || hold_64k.run(1 << 20)));
    let rig_ns = per_op(layer("layer.rig", &mut || layers::rig_pass(&inst)));
    let mut scratch = layers::concat_scratch(&inst);
    let concat_ns = per_op(layer("layer.concat", &mut || {
        layers::concat_replay(&inst, &inputs, &mut scratch)
    }));
    let link_ns = per_op(layer("layer.link", &mut || {
        layers::link_pass(&inst, &inputs)
    }));
    let cache_ns = per_op(layer("layer.cache", &mut || {
        layers::cache_pass(&inst, &inputs)
    }));
    let reduce_ns = per_op(layer("layer.reduce", &mut || {
        layers::reduce_pass(&inst, &inputs)
    }));
    for v in empty_verdicts {
        out.tally(v);
    }

    // sparse
    let nnz = inst.wl.total_nnz() as f64;
    out.push("sparse.nnz", nnz, "count");
    out.push("sparse.stream_mb", nnz * 4.0 / (1 << 20) as f64, "MiB");
    out.push_host("sparse.pattern_stats_s", pattern_stats_s, "s");
    // baselines
    out.push_host("baselines.su_s", su_s, "s");
    out.push_host("baselines.sa_s", sa_s, "s");
    // sim
    let events = r.events as f64;
    out.push("sim.events", events, "count");
    out.push_host("sim.host_ns_per_event", ratio(plain_s * 1e9, events), "ns");
    out.push_host("sim.empty_point_s", empty_s, "s");
    out.push("sim.comm_time_us", r.comm_time.as_us_f64(), "us");
    out.push("sim.traffic_reduction_vs_su", trfc, "x");
    // desim
    out.push_host("desim.hold_ns_1k", hold_1k_ns, "ns");
    out.push_host("desim.hold_ns_64k", hold_64k_ns, "ns");
    // snic
    let node_sum = |f: &dyn Fn(&netsparse::metrics::NodeReport) -> u64| {
        r.nodes.iter().map(f).sum::<u64>() as f64
    };
    let remote = node_sum(&|n| n.remote_refs());
    out.push("snic.idx_scanned", node_sum(&|n| n.idxs_scanned), "count");
    out.push("snic.remote_refs", remote, "count");
    out.push("snic.prs_issued", node_sum(&|n| n.issued), "count");
    out.push(
        "snic.fc_rate",
        ratio(node_sum(&|n| n.filtered + n.coalesced), remote),
        "ratio",
    );
    out.push("snic.stalls", node_sum(&|n| n.stalls), "count");
    out.push(
        "snic.duplicate_responses",
        node_sum(&|n| n.duplicate_responses),
        "count",
    );
    let pr_latency_ns = |q: f64| r.pr_latency.quantile(q).unwrap_or(0) as f64 / 1e3;
    out.push("snic.pr_latency_p50_ns", pr_latency_ns(0.5), "ns");
    out.push("snic.pr_latency_p99_ns", pr_latency_ns(0.99), "ns");
    out.push_host("snic.rig_ns_per_idx", rig_ns, "ns");
    // concat
    out.push("concat.prs_per_packet", r.prs_per_packet.mean(), "PR/pkt");
    out.push("concat.flush_full", counts.flush_full as f64, "count");
    out.push("concat.flush_expired", counts.flush_expired as f64, "count");
    out.push(
        "concat.flush_pressure",
        counts.flush_pressure as f64,
        "count",
    );
    out.push_host("concat.ns_per_pr", concat_ns, "ns");
    // switch
    out.push("switch.cache_lookups", r.cache_lookups as f64, "count");
    out.push("switch.cache_hit_rate", r.cache_hit_rate(), "ratio");
    out.push_host("switch.cache_ns_per_lookup", cache_ns, "ns");
    let reduce =
        |f: &dyn Fn(&netsparse::ReduceReport) -> u64| r.reduce.as_ref().map_or(0, f) as f64;
    out.push("switch.reduce_merges", reduce(&|rr| rr.merges), "count");
    out.push("switch.reduce_bypassed", reduce(&|rr| rr.bypassed), "count");
    out.push(
        "switch.reduce_root_bytes",
        reduce(&|rr| rr.root_wire_bytes),
        "B",
    );
    out.push_host("switch.reduce_ns_per_absorb", reduce_ns, "ns");
    // netsim
    out.push("netsim.link_bytes", r.total_link_bytes as f64, "B");
    out.push("netsim.link_packets", counts.link_packets as f64, "count");
    out.push(
        "netsim.max_backlog_bytes",
        r.max_link_backlog_bytes as f64,
        "B",
    );
    out.push(
        "netsim.backlog_high_water_ns",
        counts.backlog_high_water_ps as f64 / 1e3,
        "ns",
    );
    out.push(
        "netsim.hot_link_util",
        r.hot_links.first().map_or(0.0, |l| l.utilization),
        "ratio",
    );
    out.push("netsim.tail_line_util", r.tail_line_utilization(), "ratio");
    out.push_host("netsim.link_ns_per_tx", link_ns, "ns");
    // faults
    let fault =
        |f: &dyn Fn(&netsparse::metrics::FaultReport) -> u64| r.faults.as_ref().map_or(0, f) as f64;
    out.push("faults.dropped", r.dropped_packets as f64, "count");
    out.push("faults.retries", fault(&|f| f.watchdog_retries), "count");
    out.push("faults.abandoned_prs", fault(&|f| f.abandoned_prs), "count");
    out.push(
        "faults.backoff_wait_us",
        fault(&|f| f.backoff_wait.as_ps()) / 1e6,
        "us",
    );
    out.push("faults.degraded_prs", fault(&|f| f.degraded_prs), "count");
    // rig commands
    let mut cmd_us: Vec<f64> = counts
        .cmd_latency_ps
        .iter()
        .map(|&ps| ps as f64 / 1e6)
        .collect();
    cmd_us.sort_by(f64::total_cmp);
    let cmd_q = |q: f64| {
        if cmd_us.is_empty() {
            0.0
        } else {
            quantile(&cmd_us, q)
        }
    };
    out.push("rig.cmd_latency_p50_us", cmd_q(0.5), "us");
    out.push("rig.cmd_latency_p99_us", cmd_q(0.99), "us");
    // paper (the model minus its Table 7 row)
    let (p_fc, p_ppp, p_cache, p_trfc) = paper_table7(w);
    out.push("paper.fc_rate_gap", r.tail().fc_rate() * 100.0 - p_fc, "pp");
    out.push(
        "paper.cache_hit_gap",
        r.cache_hit_rate() * 100.0 - p_cache,
        "pp",
    );
    out.push(
        "paper.prs_per_packet_gap",
        r.prs_per_packet.mean() - p_ppp,
        "PR/pkt",
    );
    out.push("paper.traffic_reduction_gap", trfc - p_trfc, "x");
    // trace
    out.push("trace.records", counts.records as f64, "count");
    out.push("trace.dropped", counts.dropped as f64, "count");
    out.push_host("trace.overhead", ratio(traced_s, plain_s), "ratio");

    out.digest = oracle::report_digest(&r);
    if let Some(mib) = crate::stats::peak_rss_mib() {
        out.note("peak RSS of the traced build, MiB", format!("{mib:.1}"));
    }
    out
}
