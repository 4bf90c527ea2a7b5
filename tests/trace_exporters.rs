//! Exporter validity: the Chrome trace-event JSON must be well-formed and
//! semantically sane (Perfetto-loadable), and the CSV time series must
//! account for every captured record. The JSON is re-parsed with the
//! hand-rolled parser in `netsparse_tests::json` since the workspace
//! uses no external crates.

use std::collections::{BTreeMap, BTreeSet};

use netsparse::{simulate_traced, ClusterConfig, SimReport};
use netsparse_desim::trace::{CLUSTER_PID, LINK_PID_BASE, SWITCH_PID_BASE};
use netsparse_desim::TraceConfig;
use netsparse_netsim::{Network, Topology};
use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::SuiteMatrix;
use netsparse_tests::json;

fn topo() -> Topology {
    Topology::LeafSpine {
        racks: 2,
        rack_size: 4,
        spines: 2,
    }
}

fn run(capacity: usize) -> SimReport {
    let wl = SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 8,
        rack_size: 4,
        scale: 0.1,
        seed: 7,
    }
    .generate();
    simulate_traced(
        &ClusterConfig::mini(topo(), 16),
        &wl,
        TraceConfig { capacity },
    )
}

#[test]
fn chrome_json_parses_and_is_semantically_valid() {
    let r = run(1 << 20);
    let tr = r.trace.as_ref().unwrap();
    let doc = json::parse(&tr.buffer.to_chrome_json());
    assert_eq!(doc.get("displayTimeUnit").str(), "ns");
    let events = doc.get("traceEvents").arr();
    assert!(!events.is_empty());

    let net = Network::new(topo());
    let (nodes, switches, links) = (net.nodes(), net.switches(), net.links());
    let mut n_instants = 0usize;
    let mut named_pids: BTreeSet<u32> = BTreeSet::new();
    let mut last_ts: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for ev in events {
        let pid = ev.get("pid").num() as u32;
        let ph = ev.get("ph").str();
        match ph {
            "M" => {
                // Metadata names processes/threads; record process names
                // to check coverage below.
                if ev.get("name").str() == "process_name" {
                    named_pids.insert(pid);
                    assert!(!ev.get("args").get("name").str().is_empty());
                }
            }
            "i" => {
                n_instants += 1;
                assert_eq!(ev.get("s").str(), "t", "thread-scoped instants");
                let tid = ev.get("tid").num() as u32;
                let ts = ev.get("ts").num();
                assert!(ts >= 0.0);
                // Per-track timestamps are monotone: records are emitted
                // in event order and stamped by the engine clock.
                let prev = last_ts.insert((pid, tid), ts).unwrap_or(0.0);
                assert!(
                    ts >= prev,
                    "track ({pid},{tid}) went backwards: {prev} -> {ts}"
                );
                // Every pid maps to a real component of this topology.
                let ok = pid < nodes
                    || (pid >= SWITCH_PID_BASE && pid < SWITCH_PID_BASE + switches)
                    || (pid >= LINK_PID_BASE && pid < LINK_PID_BASE + links)
                    || pid == CLUSTER_PID;
                assert!(ok, "pid {pid:#x} maps to no node/switch/link");
                assert!(!ev.get("name").str().is_empty());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(n_instants, tr.buffer.len(), "one instant per record");
    // Every pid that emits records is also named by metadata.
    for (pid, _) in last_ts.keys() {
        assert!(named_pids.contains(pid), "pid {pid:#x} has no process_name");
    }
}

#[test]
fn chrome_json_timestamps_are_exact_microseconds() {
    let r = run(1 << 20);
    let tr = r.trace.as_ref().unwrap();
    let json_text = tr.buffer.to_chrome_json();
    // The exporter converts ps -> µs in integer arithmetic with 6 fixed
    // fractional digits, never through floats: a 450 ns propagation step
    // must appear as exactly 0.450000, not 0.44999999....
    let last = tr.buffer.records()[tr.buffer.len() - 1];
    let ps = last.time.as_ps();
    let expect = format!("\"ts\":{}.{:06}", ps / 1_000_000, ps % 1_000_000);
    assert!(
        json_text.contains(&expect),
        "expected exact timestamp {expect} in the JSON"
    );
}

#[test]
fn csv_accounts_for_every_record() {
    let r = run(1 << 20);
    let tr = r.trace.as_ref().unwrap();
    let csv = tr.buffer.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("time_ps,pid,tid,event,a,b"));
    let rows = lines.count();
    assert_eq!(rows, tr.buffer.len(), "rows == records");
    assert_eq!(
        rows as u64,
        tr.buffer.offered() - tr.buffer.dropped(),
        "rows == offered - dropped"
    );
    // Each row has exactly 6 comma-separated fields, numeric except the
    // event name.
    for row in csv.lines().skip(1).take(100) {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), 6, "bad row {row:?}");
        for (i, f) in fields.iter().enumerate() {
            if i == 3 {
                assert!(f.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            } else {
                assert!(f.parse::<u64>().is_ok(), "bad field {f:?} in {row:?}");
            }
        }
    }
}

#[test]
fn tiny_capacity_drops_are_accounted_and_prefix_stable() {
    let full = run(1 << 20);
    let tiny = run(64);
    let (ft, tt) = (full.trace.as_ref().unwrap(), tiny.trace.as_ref().unwrap());
    assert_eq!(tt.buffer.len(), 64, "tiny buffer fills to capacity");
    assert!(tt.buffer.dropped() > 0, "overflow must be counted");
    assert_eq!(
        tt.buffer.offered(),
        ft.buffer.offered(),
        "capacity must not change what is offered"
    );
    // The buffer keeps the *earliest* records, so the captured prefix is
    // identical to the full run's — capacity changes lose the tail only.
    assert_eq!(tt.buffer.records(), &ft.buffer.records()[..64]);
    // And the CSV row count matches the truncated capture.
    let rows = tt.buffer.to_csv().lines().count() - 1;
    assert_eq!(rows as u64, tt.buffer.offered() - tt.buffer.dropped());
    // Tracing capacity must not perturb the simulation itself.
    assert_eq!(full.comm_time, tiny.comm_time);
    assert_eq!(full.events, tiny.events);
}
