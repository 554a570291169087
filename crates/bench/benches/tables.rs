//! Micro-benchmarks of the three dynamic-table layouts (§III-C ablation):
//! construction and random access cost for dense / lazy / hash at equal
//! logical content. Tables are built from a `RowBatch`, the one path the
//! engine builds them by.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fascia_table::{CountTable, DenseTable, HashCountTable, LazyTable, RowBatch, TableKind};

/// `density_pct`% of the `n` vertices get a row, committed in vertex
/// order.
fn make_batch(n: usize, nc: usize, density_pct: usize) -> RowBatch {
    let mut batch = RowBatch::new(n, nc);
    for v in (0..n).filter(|v| v % 100 < density_pct) {
        for (cs, slot) in batch.stage().iter_mut().enumerate() {
            if (v + cs) % 3 == 0 {
                *slot = (v + cs) as f64;
            }
        }
        batch.commit(v);
    }
    batch
}

fn bench_build(c: &mut Criterion) {
    let n = 20_000;
    let nc = 126; // C(9, 4)
    let mut group = c.benchmark_group("table_build");
    for density in [10usize, 90] {
        let batch = make_batch(n, nc, density);
        group.bench_with_input(BenchmarkId::new("dense", density), &batch, |b, batch| {
            b.iter(|| DenseTable::from_batch_kind(TableKind::Dense, batch.clone()))
        });
        group.bench_with_input(BenchmarkId::new("lazy", density), &batch, |b, batch| {
            b.iter(|| LazyTable::from_batch_kind(TableKind::Lazy, batch.clone()))
        });
        group.bench_with_input(BenchmarkId::new("hash", density), &batch, |b, batch| {
            b.iter(|| HashCountTable::from_batch_kind(TableKind::Hash, batch.clone()))
        });
    }
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let n = 20_000;
    let nc = 126;
    let batch = make_batch(n, nc, 50);
    let dense = DenseTable::from_batch_kind(TableKind::Dense, batch.clone());
    let lazy = LazyTable::from_batch_kind(TableKind::Lazy, batch.clone());
    let hash = HashCountTable::from_batch_kind(TableKind::Hash, batch);
    let mut group = c.benchmark_group("table_get_100k");
    let probe = |t: &dyn Fn(usize, usize) -> f64| {
        let mut acc = 0.0;
        let mut x = 12345usize;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (x >> 16) % n;
            let cs = (x >> 40) % nc;
            acc += t(v, cs);
        }
        acc
    };
    group.bench_function("dense", |b| {
        b.iter(|| probe(&|v, cs| dense.get(black_box(v), cs)))
    });
    group.bench_function("lazy", |b| {
        b.iter(|| probe(&|v, cs| lazy.get(black_box(v), cs)))
    });
    group.bench_function("hash", |b| {
        b.iter(|| probe(&|v, cs| hash.get(black_box(v), cs)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_build, bench_get
}
criterion_main!(benches);
