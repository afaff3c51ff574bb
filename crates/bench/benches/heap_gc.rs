//! Collector micro-benchmarks: allocation + minor-GC throughput, and
//! full-GC trace cost as a function of the live cached set — the scaling
//! law behind the paper's §6.2 (full collections cost O(live objects)).

#![forbid(unsafe_code)]

use deca_check::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deca_heap::{ClassBuilder, FieldKind, Heap, HeapConfig};

fn alloc_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_churn");
    group.bench_function("alloc_24B_with_minor_gcs", |b| {
        let mut heap = Heap::new(HeapConfig::with_total(8 << 20));
        let cls = heap.define_class(ClassBuilder::new("T").field("v", FieldKind::I64));
        b.iter(|| {
            for _ in 0..1000 {
                std::hint::black_box(heap.alloc(cls).unwrap());
            }
        });
    });
    group.finish();
}

fn full_gc_scales_with_live_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_gc_vs_live_objects");
    group.sample_size(10);
    for &live in &[10_000usize, 50_000, 200_000] {
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, &live| {
            let mut heap = Heap::new(HeapConfig::with_total(64 << 20));
            let cls = heap.define_class(
                ClassBuilder::new("Cached").field("a", FieldKind::I64).field("b", FieldKind::Ref),
            );
            let arr = heap.define_array_class("Object[]", FieldKind::Ref);
            let holder = heap.alloc_array(arr, live).unwrap();
            let root = heap.add_root(holder);
            for i in 0..live {
                let o = heap.alloc(cls).unwrap();
                let holder = heap.root_ref(root);
                heap.array_set_ref(holder, i, o);
            }
            b.iter(|| heap.full_gc());
        });
    }
    group.finish();
}

fn full_gc_with_external_pages(c: &mut Criterion) {
    // The Deca counterpoint: the same bytes as external pages trace in
    // O(#pages) instead of O(#objects).
    let mut group = c.benchmark_group("full_gc_external_pages");
    group.sample_size(20);
    group.bench_function("200k_records_as_pages", |b| {
        let mut heap = Heap::new(HeapConfig::with_total(64 << 20));
        // 200k x 24B = 4.8MB in 64KB pages = ~75 externals.
        let mut ids = Vec::new();
        for _ in 0..75 {
            ids.push(heap.register_external(64 << 10).unwrap());
        }
        b.iter(|| heap.full_gc());
    });
    group.finish();
}

criterion_group!(benches, alloc_churn, full_gc_scales_with_live_set, full_gc_with_external_pages);
criterion_main!(benches);
