//! Page-group micro-benchmarks: append/scan throughput and the page-size
//! ablation (§2.3: pages too small cost GC overhead, too large waste
//! space — here we also see the framing and per-page registration costs).

#![forbid(unsafe_code)]

use deca_check::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deca_core::{DecaCacheBlock, MemoryManager};
use deca_heap::{Heap, HeapConfig};

fn setup(page_size: usize) -> (Heap, MemoryManager) {
    (
        Heap::new(HeapConfig::with_total(64 << 20)),
        MemoryManager::new(page_size, std::env::temp_dir().join("deca-bench-pages")),
    )
}

fn append_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_append_scan");
    group.bench_function("append_16B_sfst", |b| {
        let (mut heap, mut mm) = setup(64 << 10);
        b.iter(|| {
            let mut block = DecaCacheBlock::new::<(f64, i64)>(&mut mm);
            for i in 0..1000i64 {
                block.append(&mut mm, &mut heap, &(i as f64, i)).unwrap();
            }
            block.release(&mut mm, &mut heap);
        });
    });
    group.bench_function("scan_16B_sfst", |b| {
        let (mut heap, mut mm) = setup(64 << 10);
        let mut block = DecaCacheBlock::new::<(f64, i64)>(&mut mm);
        for i in 0..10_000i64 {
            block.append(&mut mm, &mut heap, &(i as f64, i)).unwrap();
        }
        b.iter(|| {
            let mut sum = 0.0;
            block
                .scan_bytes(
                    &mut mm,
                    &mut heap,
                    |bytes| {
                        sum += f64::from_le_bytes(bytes[..8].try_into().unwrap());
                    },
                    |_| {},
                )
                .unwrap();
            std::hint::black_box(sum);
        });
    });
    group.finish();
}

fn page_size_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_size_ablation");
    group.sample_size(20);
    for &page in &[1usize << 10, 16 << 10, 256 << 10] {
        group.bench_with_input(BenchmarkId::from_parameter(page), &page, |b, &page| {
            b.iter(|| {
                let (mut heap, mut mm) = setup(page);
                let mut block = DecaCacheBlock::new::<(f64, i64)>(&mut mm);
                for i in 0..20_000i64 {
                    block.append(&mut mm, &mut heap, &(i as f64, i)).unwrap();
                }
                // The GC cost of the pages themselves:
                heap.full_gc();
                block.release(&mut mm, &mut heap);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, append_scan, page_size_ablation);
criterion_main!(benches);
