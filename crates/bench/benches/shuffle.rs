//! Shuffle-buffer micro-benchmarks: heap-object eager combining (new
//! Value object per combine) vs decomposed in-place segment reuse —
//! the §4.3.2 optimisation in isolation.

#![forbid(unsafe_code)]

use deca_check::{criterion_group, criterion_main, Criterion};
use deca_core::{DecaHashShuffle, MemoryManager};
use deca_engine::SparkHashShuffle;
use deca_heap::{Heap, HeapConfig};

fn combine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffle_combine");
    group.sample_size(20);

    group.bench_function("spark_heap_objects", |b| {
        let mut heap = Heap::new(HeapConfig::with_total(32 << 20));
        let mut buf: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut heap).unwrap();
        b.iter(|| {
            for i in 0..5_000i64 {
                buf.insert(&mut heap, i % 97, 1, |a, b| a + b).unwrap();
            }
        });
    });

    group.bench_function("deca_segment_reuse", |b| {
        let mut heap = Heap::new(HeapConfig::with_total(32 << 20));
        let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-bench-shuffle"));
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let one = 1i64.to_le_bytes();
        b.iter(|| {
            for i in 0..5_000i64 {
                let k = (i % 97).to_le_bytes();
                buf.insert(&mut mm, &mut heap, &k, &one, |acc, add| {
                    let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
                    let b = i64::from_le_bytes(add[..8].try_into().unwrap());
                    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
                })
                .unwrap();
            }
        });
    });

    group.finish();
}

criterion_group!(benches, combine_throughput);
criterion_main!(benches);
