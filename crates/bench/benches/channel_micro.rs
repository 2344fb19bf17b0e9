//! Criterion micro-benchmarks for the channel *mechanisms* (the paper's
//! Figs. 5–7 describe these data paths; the tables measure their
//! end-to-end effect, these benches isolate the primitive costs):
//!
//! * `fig5_scatter_combine` — producing receiver-combined messages by
//!   `ScatterCombine`'s shipped gather kernel over its by-destination CSR
//!   (`sorted_scan`) vs the per-edge `dyn` combiner call over a pair array
//!   it replaced (`dyn_per_edge`) vs the hash-table combining of the
//!   general message path;
//! * `fig6_request_respond` — sort+dedup of request batches vs hash-set
//!   dedup, and positional vs (id, value) response encoding;
//! * `fig7_propagation` — worklist label propagation over a local subgraph
//!   vs one synchronous sweep per "superstep";
//! * `codec` — raw encode/decode throughput of the wire codec;
//! * `exchange_pooling` — one simulated exchange round with pooled buffers
//!   vs fresh allocations (the steady-state engine path vs the old one);
//! * `prop_staging` — remote-update combining through dense per-peer slot
//!   arrays + dirty lists vs a per-peer hash map (the Propagation channel's
//!   hottest path before and after this change).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pc_bsp::codec::{Codec, Reader};
use pc_channels::Combine;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hint::black_box;

const N_VERTICES: usize = 1 << 14;
const N_EDGES: usize = 1 << 17;

fn edges(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N_EDGES)
        .map(|_| {
            (
                rng.random_range(0..N_VERTICES as u32),
                rng.random_range(0..N_VERTICES as u32),
            )
        })
        .collect()
}

fn fig5_scatter_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_scatter_combine");
    let values: Vec<u64> = (0..N_VERTICES as u64).collect();

    // The routes as `ScatterCombine` keeps them: a by-destination CSR.
    let mut sorted = edges(1);
    sorted.sort_unstable();
    let srcs: Vec<u32> = sorted.iter().map(|&(_, src)| src).collect();
    let run_ends: Vec<u32> = sorted
        .chunk_by(|a, b| a.0 == b.0)
        .scan(0u32, |end, run| {
            *end += run.len() as u32;
            Some(*end)
        })
        .collect();
    let sum = Combine::sum_u64();

    // What the channel runs per peer per superstep: the shipped gather
    // kernel, combiner inlined, into a reused scratch.
    let mut out: Vec<u64> = Vec::new();
    g.bench_function("sorted_scan", |b| {
        b.iter(|| {
            out.clear();
            sum.gather(&values, &srcs, &run_ends, &mut out);
            black_box(out.len())
        })
    });

    // What it ran before the kernels: the combiner called through its
    // pointer once per edge over `Option` slots and `(dst, src)` pairs,
    // into a fresh pair vector.
    let slots: Vec<Option<u64>> = values.iter().copied().map(Some).collect();
    g.bench_function("dyn_per_edge", |b| {
        b.iter(|| {
            let mut out: Vec<(u32, u64)> = Vec::with_capacity(run_ends.len());
            let mut i = 0;
            while i < sorted.len() {
                let dst = sorted[i].0;
                let mut acc: Option<u64> = None;
                while i < sorted.len() && sorted[i].0 == dst {
                    if let Some(v) = &slots[sorted[i].1 as usize] {
                        match &mut acc {
                            Some(a) => sum.apply(a, *v),
                            None => acc = Some(*v),
                        }
                    }
                    i += 1;
                }
                if let Some(v) = acc {
                    out.push((dst, v));
                }
            }
            black_box(out)
        })
    });

    // Hash-table combining: the general-case message path.
    let unsorted = edges(1);
    g.bench_function("hash_combine", |b| {
        b.iter(|| {
            let mut out: HashMap<u32, u64> = HashMap::with_capacity(N_EDGES / 2);
            for &(dst, src) in &unsorted {
                *out.entry(dst).or_insert(0) += values[src as usize];
            }
            black_box(out)
        })
    });
    g.finish();
}

fn fig6_request_respond(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_request_respond");
    let mut rng = StdRng::seed_from_u64(7);
    let requests: Vec<u32> = (0..N_EDGES)
        .map(|_| rng.random_range(0..N_VERTICES as u32 / 4))
        .collect();

    g.bench_function("sort_dedup", |b| {
        b.iter_batched(
            || requests.clone(),
            |mut reqs| {
                reqs.sort_unstable();
                reqs.dedup();
                black_box(reqs)
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("hashset_dedup", |b| {
        b.iter(|| {
            let set: HashSet<u32> = requests.iter().copied().collect();
            black_box(set)
        })
    });

    // Response encodings: positional values vs (id, value) pairs.
    let unique: Vec<u32> = {
        let mut r = requests.clone();
        r.sort_unstable();
        r.dedup();
        r
    };
    g.bench_function("respond_positional", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(unique.len() * 8);
            for &id in &unique {
                (id as u64).encode(&mut buf);
            }
            black_box(buf)
        })
    });
    g.bench_function("respond_id_value", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(unique.len() * 12);
            for &id in &unique {
                id.encode(&mut buf);
                (id as u64).encode(&mut buf);
            }
            black_box(buf)
        })
    });
    g.finish();
}

fn fig7_propagation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_propagation");
    // A local grid subgraph: worst case for synchronous sweeps.
    let side = 128usize;
    let n = side * side;
    let mut adj = vec![Vec::new(); n];
    for r in 0..side {
        for col in 0..side {
            let v = r * side + col;
            if col + 1 < side {
                adj[v].push(v + 1);
                adj[v + 1].push(v);
            }
            if r + 1 < side {
                adj[v].push(v + side);
                adj[v + side].push(v);
            }
        }
    }

    g.bench_function("async_worklist", |b| {
        b.iter(|| {
            let mut label: Vec<u32> = (0..n as u32).collect();
            let mut queue: VecDeque<usize> = (0..n).collect();
            let mut in_queue = vec![true; n];
            while let Some(u) = queue.pop_front() {
                in_queue[u] = false;
                let l = label[u];
                for &t in &adj[u] {
                    if l < label[t] {
                        label[t] = l;
                        if !in_queue[t] {
                            in_queue[t] = true;
                            queue.push_back(t);
                        }
                    }
                }
            }
            black_box(label)
        })
    });

    g.bench_function("sync_sweeps", |b| {
        b.iter(|| {
            let mut label: Vec<u32> = (0..n as u32).collect();
            loop {
                let mut changed = false;
                // One "superstep": everyone reads neighbors once.
                let prev = label.clone();
                for (u, edges) in adj.iter().enumerate() {
                    for &t in edges {
                        if prev[t] < label[u] {
                            label[u] = prev[t];
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            black_box(label)
        })
    });
    g.finish();
}

fn codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let pairs: Vec<(u32, f64)> = (0..100_000).map(|i| (i as u32, i as f64 * 0.5)).collect();

    g.bench_function("encode_pairs", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(pairs.len() * 12);
            for p in &pairs {
                p.encode(&mut buf);
            }
            black_box(buf)
        })
    });

    let mut buf = Vec::new();
    for p in &pairs {
        p.encode(&mut buf);
    }
    g.bench_function("decode_pairs", |b| {
        b.iter(|| {
            let mut r = Reader::new(&buf);
            let mut sum = 0.0;
            while !r.is_empty() {
                let (_, v): (u32, f64) = r.get();
                sum += v;
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn exchange_pooling(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange_pooling");
    const PEERS: usize = 8;
    const ROUND_BYTES: usize = 64 * 1024;
    let payload = vec![7u8; 1024];

    // Old path: every round allocates one fresh Vec per peer and drops the
    // received ones.
    g.bench_function("fresh_alloc_round", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..PEERS {
                let mut buf = Vec::new();
                while buf.len() < ROUND_BYTES {
                    buf.extend_from_slice(&payload);
                }
                total += buf.len();
                drop(buf);
            }
            black_box(total)
        })
    });

    // New path: buffers cycle through a pool, so steady-state rounds only
    // clear and refill.
    let mut pool = pc_bsp::BufferPool::new();
    g.bench_function("pooled_round", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut used = Vec::with_capacity(PEERS);
            for _ in 0..PEERS {
                let mut buf = pool.get();
                while buf.len() < ROUND_BYTES {
                    buf.extend_from_slice(&payload);
                }
                total += buf.len();
                used.push(buf);
            }
            pool.put_all(used);
            black_box(total)
        })
    });
    g.finish();
}

fn prop_staging(c: &mut Criterion) {
    let mut g = c.benchmark_group("prop_staging");
    // Remote updates of one busy round: many targets touched repeatedly
    // (label propagation folds several updates per boundary vertex).
    let targets = N_VERTICES / 4;
    let updates: Vec<(u32, u64)> = {
        let mut rng = StdRng::seed_from_u64(11);
        (0..N_EDGES)
            .map(|_| {
                (
                    rng.random_range(0..targets as u32),
                    rng.random_range(0..1u64 << 32),
                )
            })
            .collect()
    };

    g.bench_function("hashmap_stage", |b| {
        b.iter(|| {
            let mut staging: HashMap<u32, u64> = HashMap::new();
            for &(dst, v) in &updates {
                match staging.entry(dst) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let m = (*e.get()).min(v);
                        e.insert(m);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(v);
                    }
                }
            }
            black_box(staging.len())
        })
    });

    let mut slots: Vec<Option<u64>> = vec![None; targets];
    let mut dirty: Vec<u32> = Vec::with_capacity(targets);
    g.bench_function("dense_slots_stage", |b| {
        b.iter(|| {
            for &(dst, v) in &updates {
                match &mut slots[dst as usize] {
                    Some(acc) => *acc = (*acc).min(v),
                    slot @ None => {
                        *slot = Some(v);
                        dirty.push(dst);
                    }
                }
            }
            let n = dirty.len();
            for dst in dirty.drain(..) {
                slots[dst as usize] = None;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn barrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier");
    const THREADS: usize = 4;
    const CROSSINGS: usize = 1000;

    // The engine's old rendezvous: std::sync::Barrier (mutex + condvar on
    // every arrival).
    g.bench_function("std_barrier_1k_crossings", |b| {
        b.iter(|| {
            let bar = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let bar = std::sync::Arc::clone(&bar);
                    std::thread::spawn(move || {
                        for _ in 0..CROSSINGS {
                            bar.wait();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });

    // The replacement: sense-reversing spin-then-park barrier.
    g.bench_function("spin_barrier_1k_crossings", |b| {
        b.iter(|| {
            let bar = std::sync::Arc::new(pc_bsp::SpinBarrier::new(THREADS));
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let bar = std::sync::Arc::clone(&bar);
                    std::thread::spawn(move || {
                        for _ in 0..CROSSINGS {
                            bar.wait();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = fig5_scatter_combine, fig6_request_respond, fig7_propagation, codec,
        exchange_pooling, prop_staging, barrier
}
criterion_main!(benches);
