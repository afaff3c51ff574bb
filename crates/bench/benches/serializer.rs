//! Serializer micro-benchmarks backing Table 5's bottom rows: Deca's flat
//! encode ≈ Kryo's encode, while Deca reads fields in place and pays no
//! deserialization at all.
//!
//! Timing-granularity note: `KryoSim` charges `ser_time`/`deser_time` at
//! *batch* scope (one `Instant` pair around a whole loop, via
//! `time_ser`/`time_deser` or the `*_all` helpers), not per record. The
//! `kryo_timer_granularity_*` pair below measures why: encoding one small
//! tuple costs a few nanoseconds, while an `Instant::now()` pair costs
//! tens — per-record bracketing multiplies the measured "serialization"
//! cost several-fold and the harness becomes the workload. Run with
//! `cargo bench --bench serializer` and compare the two cells.

#![forbid(unsafe_code)]

use deca_apps::records::LabeledPointRec;
use deca_check::{criterion_group, criterion_main, Criterion};
use deca_core::DecaRecord;
use deca_engine::KryoSim;

fn per_object_costs(c: &mut Criterion) {
    let recs: Vec<LabeledPointRec> = (0..1000)
        .map(|i| LabeledPointRec {
            label: if i % 2 == 0 { 1.0 } else { -1.0 },
            features: (0..10).map(|j| (i * j) as f64 * 0.25).collect(),
        })
        .collect();

    c.bench_function("kryo_serialize_1k_points", |b| {
        b.iter(|| {
            let mut k = KryoSim::new();
            std::hint::black_box(k.serialize_all(&recs));
        });
    });

    c.bench_function("kryo_deserialize_1k_points", |b| {
        let mut k = KryoSim::new();
        let buf = k.serialize_all(&recs);
        b.iter(|| {
            let mut k = KryoSim::new();
            std::hint::black_box(k.deserialize_all::<LabeledPointRec>(&buf));
        });
    });

    c.bench_function("deca_encode_1k_points", |b| {
        let size = recs[0].data_size();
        let mut buf = vec![0u8; size * recs.len()];
        b.iter(|| {
            for (i, r) in recs.iter().enumerate() {
                r.encode(&mut buf[i * size..(i + 1) * size]);
            }
            std::hint::black_box(&buf);
        });
    });

    c.bench_function("deca_read_in_place_1k_points", |b| {
        // The "deserialization" equivalent: direct field reads, no object.
        let size = recs[0].data_size();
        let mut buf = vec![0u8; size * recs.len()];
        for (i, r) in recs.iter().enumerate() {
            r.encode(&mut buf[i * size..(i + 1) * size]);
        }
        b.iter(|| {
            let mut sum = 0.0;
            for chunk in buf.chunks_exact(size) {
                sum += f64::from_le_bytes(chunk[..8].try_into().unwrap());
                sum += f64::from_le_bytes(chunk[8..16].try_into().unwrap());
            }
            std::hint::black_box(sum);
        });
    });
}

fn timer_granularity(c: &mut Criterion) {
    // The same 10k-pair encode, timed the two ways. "batch" is the shipped
    // design (one timer pair per phase); "per_record" re-creates the old
    // per-record bracketing to show the overhead it added to ser_time.
    let recs: Vec<(i64, i64)> = (0..10_000).map(|i| (i, i * 3)).collect();

    c.bench_function("kryo_timer_granularity_batch", |b| {
        b.iter(|| {
            let mut k = KryoSim::new();
            let buf = k.time_ser(|k| {
                let mut buf = Vec::new();
                for r in &recs {
                    k.serialize(r, &mut buf);
                }
                buf
            });
            std::hint::black_box((buf, k.ser_time));
        });
    });

    c.bench_function("kryo_timer_granularity_per_record", |b| {
        b.iter(|| {
            let mut k = KryoSim::new();
            let mut buf = Vec::new();
            for r in &recs {
                k.time_ser(|k| k.serialize(r, &mut buf));
            }
            std::hint::black_box((buf, k.ser_time));
        });
    });
}

criterion_group!(benches, per_object_costs, timer_granularity);
criterion_main!(benches);
