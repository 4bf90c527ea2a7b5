//! Checks of the benchmark against its declaration in `BENCHMARK.json`:
//! each workload runs at a small scale for its minimum repetitions.

use netsparse::prelude::*;

use crate::oracle;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::workload::Workload;

const SMALL_SCALE: f64 = 0.02;

/// `BENCHMARK.json` at the repository root, five levels above this file.
const DECLARATION: &str = include_str!("../../../../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let start = DECLARATION
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &DECLARATION[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(w: Workload, seed: u64) -> Outcome {
    crate::measure(w, seed, 0.0, SMALL_SCALE, &mut Spans::new())
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn declared_names_are_well_formed() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layer.len()),
        "{} per-layer metrics",
        layer.len()
    );
    for n in e2e.iter().chain(&layer) {
        assert!(valid_name(n), "bad metric name {n}");
    }
    let workloads = declared("workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_emits_exactly_its_declared_metrics_and_repeats() {
    let want = declared(if cfg!(feature = "trace") {
        "per_layer"
    } else {
        "end_to_end"
    });
    for w in Workload::ALL {
        let a = run(w, 7);
        assert!(a.correct(), "{}: {:?}", w.name(), a.failures);
        let got: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{}", w.name());
        assert!(a.metrics.iter().all(|m| m.value.is_finite()));

        let b = run(w, 7);
        assert_eq!(a.digest, b.digest, "{}: report digest", w.name());
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if !x.host {
                assert_eq!(x.value, y.value, "{}: {}", w.name(), x.name);
            }
        }
    }
}

#[test]
fn oracle_rejects_doctored_reports() {
    let inst = Workload::UkFull.instance(3, SMALL_SCALE);
    let good = try_simulate(&inst.cfg, &inst.wl);
    let digest = oracle::report_digest(good.as_ref().expect("healthy run"));
    assert_eq!(oracle::check(&good, Some(digest)), Ok(()));

    let doctor = |f: &dyn Fn(&mut SimReport)| {
        let mut r = good.clone().expect("healthy run");
        f(&mut r);
        Ok(r)
    };
    let missed = doctor(&|r| r.functional_check_passed = false);
    assert!(oracle::check(&missed, None).is_err());
    let leaked = doctor(&|r| r.nodes[0].issued += 1);
    assert!(oracle::check(&leaked, None).is_err());
    let drifted = doctor(&|r| r.events += 1);
    assert!(oracle::check(&drifted, None).is_ok());
    assert!(oracle::check(&drifted, Some(digest)).is_err());
    let unconserved = doctor(&|r| {
        r.reduce = Some(netsparse::ReduceReport {
            contribs_issued: 2,
            contribs_delivered: 1,
            ..Default::default()
        })
    });
    assert!(oracle::check(&unconserved, None).is_err());

    let other = Workload::UkFull.instance(3, SMALL_SCALE);
    let mut wrong = other.cfg.clone();
    wrong.topology = Topology::LeafSpine {
        racks: 2,
        rack_size: 4,
        spines: 2,
    };
    assert!(oracle::check(&try_simulate(&wrong, &other.wl), None).is_err());
}
