//! Criterion benchmarks of whole-cluster simulations: how fast the
//! simulator itself runs on each benchmark matrix, and how the mechanism
//! set changes simulation cost (the ablation harness's own overhead).

// Tool-root rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use netsparse_bench::microbench::{black_box, BenchmarkId, Criterion};
use netsparse_bench::{criterion_group, criterion_main};

use netsparse::prelude::*;

fn small_cluster() -> Topology {
    Topology::LeafSpine {
        racks: 4,
        rack_size: 8,
        spines: 4,
    }
}

fn bench_simulate_per_matrix(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_32nodes");
    g.sample_size(10);
    for m in SuiteMatrix::ALL {
        let wl = SuiteConfig {
            matrix: m,
            nodes: 32,
            rack_size: 8,
            scale: 0.05,
            seed: 2,
        }
        .generate();
        let cfg = ClusterConfig::mini(small_cluster(), 16);
        g.bench_with_input(BenchmarkId::from_parameter(m.name()), &wl, |b, wl| {
            b.iter(|| black_box(simulate(&cfg, wl)).comm_time)
        });
    }
    g.finish();
}

fn bench_simulate_mechanism_cost(c: &mut Criterion) {
    let wl = SuiteConfig {
        matrix: SuiteMatrix::Arabic,
        nodes: 32,
        rack_size: 8,
        scale: 0.05,
        seed: 2,
    }
    .generate();
    let mut g = c.benchmark_group("simulate_mechanisms");
    g.sample_size(10);
    for (name, mechanisms) in Mechanisms::ablation_stages() {
        let mut cfg = ClusterConfig::mini(small_cluster(), 16);
        cfg.mechanisms = mechanisms;
        g.bench_with_input(BenchmarkId::from_parameter(name), &wl, |b, wl| {
            b.iter(|| black_box(simulate(&cfg, wl)).events)
        });
    }
    g.finish();
}

fn bench_topologies(c: &mut Criterion) {
    let wl = SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 128,
        rack_size: 16,
        scale: 0.01,
        seed: 2,
    }
    .generate();
    let mut g = c.benchmark_group("simulate_topologies_128");
    g.sample_size(10);
    for (name, topo) in netsparse::experiments::figure22_topologies() {
        let cfg = ClusterConfig::mini(topo, 16);
        g.bench_with_input(BenchmarkId::from_parameter(name), &wl, |b, wl| {
            b.iter(|| black_box(simulate(&cfg, wl)).comm_time)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_simulate_per_matrix,
    bench_simulate_mechanism_cost,
    bench_topologies
);
criterion_main!(benches);
