//! Criterion micro-benchmarks of the substrate components: the hot inner
//! structures every simulated PR touches (event queue, Idx Filter,
//! Pending PR Table, Concatenator, Property Cache) plus workload
//! generation and the reference kernels.

use netsparse_bench::microbench::{black_box, BenchmarkId, Criterion, Throughput};
use netsparse_bench::{criterion_group, criterion_main};

use netsparse_desim::{EventQueue, SimTime, SplitMix64};
use netsparse_snic::vconcat::VirtualCqConfig;
use netsparse_snic::{ConcatConfig, ConcatPoint, HeaderSpec, IdxFilter, PendingTable, Pr, PrKind};
use netsparse_sparse::kernels::{spmm, synthetic_properties};
use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::SuiteMatrix;
use netsparse_switch::{PropertyCache, PropertyCacheConfig};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut rng = SplitMix64::new(7);
            for i in 0..10_000u64 {
                q.push(SimTime::from_ps(rng.next_range(1_000_000)), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, e)) = q.pop() {
                debug_assert!(t >= last);
                last = t;
                black_box(e);
            }
        })
    });
    // The hold model on 256 backlogged links, 256 packets deep each
    // (64 Ki pending): every popped arrival sends one more packet down
    // its link, behind that link's backlog, on the link's lane. Only
    // each link's head sits in the heap.
    g.bench_function("link_backlog_64k", |b| {
        const LINKS: u32 = 256;
        const DEPTH: u32 = 256;
        fn send(
            q: &mut EventQueue<u32>,
            busy_until: &mut [SimTime],
            rng: &mut SplitMix64,
            link: u32,
            now: SimTime,
        ) {
            let wire = &mut busy_until[link as usize];
            *wire = (*wire).max(now) + SimTime::from_ps(rng.range_u64(1, 2_000));
            q.push_lane(link, *wire + SimTime::from_ns(450), link);
        }
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut busy_until = vec![SimTime::ZERO; LINKS as usize];
        let mut rng = SplitMix64::new(13);
        for _ in 0..DEPTH {
            for link in 0..LINKS {
                send(&mut q, &mut busy_until, &mut rng, link, SimTime::ZERO);
            }
        }
        b.iter(|| {
            for _ in 0..10_000 {
                let (now, link) = q.pop().expect("the hold model keeps its occupancy");
                send(&mut q, &mut busy_until, &mut rng, link, now);
            }
        })
    });
    g.finish();
}

fn bench_idx_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("idx_filter");
    g.throughput(Throughput::Elements(100_000));
    // 100k random idxs touch every page of 2^20 columns, but leave most
    // words of each 10^8-column page clear.
    for n_cols in [1u32 << 20, 100_000_000] {
        let id = BenchmarkId::new("insert_contains_100k", format!("{n_cols}_cols"));
        g.bench_function(id, |b| {
            b.iter(|| {
                let mut f = IdxFilter::new(n_cols);
                let mut rng = SplitMix64::new(3);
                for _ in 0..100_000 {
                    let idx = rng.next_range(u64::from(n_cols)) as u32;
                    if !f.contains(idx) {
                        f.insert(idx);
                    }
                }
                black_box(f.len())
            })
        });
    }
    g.finish();
}

fn bench_pending_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("pending_table");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("insert_remove_cycle_100k", |b| {
        b.iter(|| {
            let mut t = PendingTable::new(256);
            let mut rng = SplitMix64::new(11);
            let mut live: Vec<u32> = Vec::new();
            for _ in 0..100_000 {
                if t.is_full() || (!live.is_empty() && rng.chance(0.5)) {
                    let i = rng.next_range(live.len() as u64) as usize;
                    let idx = live.swap_remove(i);
                    t.remove(idx);
                } else {
                    let idx = rng.next_u64() as u32;
                    if !t.contains(idx) && t.insert(idx) {
                        live.push(idx);
                    }
                }
            }
            black_box(t.len())
        })
    });
    g.finish();
}

/// 100k read PRs to random destinations through `con`, one every 455 ps,
/// with an expiry flush every 64 pushes and a final drain. Returns the
/// packets sealed.
fn push_flush_100k(mut con: ConcatPoint) -> u64 {
    let mut rng = SplitMix64::new(5);
    let mut emitted = 0u64;
    for i in 0..100_000u32 {
        let t = SimTime::from_ps(u64::from(i) * 455);
        let dest = rng.next_range(127) as u32;
        let pr = Pr {
            src_node: 0,
            src_tid: 0,
            idx: i,
            req_id: i,
        };
        con.push_with(t, dest, PrKind::Read, pr, 0, |_| emitted += 1);
        if i % 64 == 0 {
            con.flush_expired_with(t, |_| emitted += 1);
        }
    }
    emitted + con.flush_all().len() as u64
}

fn bench_concatenator(c: &mut Criterion) {
    let cfg = ConcatConfig {
        headers: HeaderSpec::paper(),
        mtu: 1_500,
        delay: SimTime::from_ns(227),
        enabled: true,
    };
    let mut g = c.benchmark_group("concatenator");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("push_flush_100k", |b| {
        b.iter(|| black_box(push_flush_100k(ConcatPoint::dedicated(cfg))))
    });
    g.bench_function("virtual_push_flush_100k", |b| {
        b.iter(|| {
            let pool = VirtualCqConfig::paper_sketch();
            black_box(push_flush_100k(ConcatPoint::virtualized(cfg, pool)))
        })
    });
    g.finish();
}

fn bench_property_cache(c: &mut Criterion) {
    let cfg = PropertyCacheConfig {
        capacity_bytes: 4 << 20,
        ..PropertyCacheConfig::paper()
    };
    let mut g = c.benchmark_group("property_cache");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("lookup_insert_100k", |b| {
        b.iter(|| {
            let mut cache = PropertyCache::new(cfg, 64);
            let mut rng = SplitMix64::new(9);
            let mut hits = 0u64;
            for _ in 0..100_000 {
                let idx = rng.next_range(200_000) as u32;
                if cache.lookup(idx) {
                    hits += 1;
                } else {
                    cache.insert(idx);
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload_generation");
    g.sample_size(10);
    g.bench_function("arabic_32nodes_small", |b| {
        b.iter(|| {
            let wl = SuiteConfig {
                matrix: SuiteMatrix::Arabic,
                nodes: 32,
                rack_size: 8,
                scale: 0.05,
                seed: 1,
            }
            .generate();
            black_box(wl.total_nnz())
        })
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let m = netsparse_sparse::gen::power_law(Default::default(), 3).to_csr();
    let props = synthetic_properties(m.ncols(), 16);
    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(m.nnz() as u64));
    g.bench_function("spmm_k16", |b| b.iter(|| black_box(spmm(&m, &props, 16))));
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_idx_filter,
    bench_pending_table,
    bench_concatenator,
    bench_property_cache,
    bench_workload_generation,
    bench_kernels
);
criterion_main!(benches);
