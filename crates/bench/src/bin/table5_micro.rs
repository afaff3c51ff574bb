//! Table 5 — controlled microbenchmarks: LR and PR in a single executor
//! with a small vs a large heap, plus per-object serialization costs.
//!
//! Expected shape (paper):
//! * small heap: Spark GC-bound; SparkSer and Deca keep GC low; Deca
//!   fastest (no deser);
//! * large heap: negligible GC; Deca ≈ Spark for LR (no boxing on the
//!   hot path there), SparkSer pays deserialization; for PR Deca also
//!   beats Spark because Spark's shuffle path reads auto-boxed objects;
//! * avg serialize per object: Deca ≈ Kryo; Deca deserialize: none.

#![forbid(unsafe_code)]

use std::time::Instant;

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::records::LabeledPointRec;
use deca_apps::run_job_local;
use deca_bench::{secs, table_header, table_row, Scale};
use deca_core::DecaRecord;
use deca_engine::{ExecutionMode, KryoSim};

fn main() {
    let scale = Scale::from_env();

    println!("# Table 5: single-executor microbenchmarks\n");
    table_header(&["app", "heap", "metric", "Spark", "Deca", "SparkSer"]);

    // --------------------------------------------------------- LR
    let lr = |heap_bytes: usize, mode| {
        let mut p = LrParams::small(mode);
        p.points = scale.records(60_000);
        p.dims = 10;
        p.iterations = scale.lr_iterations;
        p.heap_bytes = heap_bytes;
        p.storage_fraction = 0.65;
        run_job_local(&logreg::job(&p), logreg::lr_config(&p), 1)
    };
    for (heap_bytes, label) in [(14 << 20, "small"), (64 << 20, "large")] {
        let spark = lr(heap_bytes, ExecutionMode::Spark);
        let deca = lr(heap_bytes, ExecutionMode::Deca);
        let ser = lr(heap_bytes, ExecutionMode::SparkSer);
        table_row(&[
            "LR".into(),
            label.into(),
            "exec_s".into(),
            secs(spark.exec()),
            secs(deca.exec()),
            secs(ser.exec()),
        ]);
        table_row(&[
            "LR".into(),
            label.into(),
            "gc_s".into(),
            secs(spark.gc()),
            secs(deca.gc()),
            secs(ser.gc()),
        ]);
    }

    // --------------------------------------------------------- PR
    let pr = |heap_bytes: usize, mode| {
        let mut p = PrParams::small(mode);
        p.vertices = scale.records(16_000); // Pokec-shaped
        p.edges = scale.records(300_000);
        p.iterations = scale.graph_iterations;
        p.heap_bytes = heap_bytes;
        run_job_local(&pagerank::job(&p), pagerank::pr_config(&p), 1)
    };
    for (heap_bytes, label) in [(12 << 20, "small"), (64 << 20, "large")] {
        let spark = pr(heap_bytes, ExecutionMode::Spark);
        let deca = pr(heap_bytes, ExecutionMode::Deca);
        let ser = pr(heap_bytes, ExecutionMode::SparkSer);
        table_row(&[
            "PR".into(),
            label.into(),
            "exec_s".into(),
            secs(spark.exec()),
            secs(deca.exec()),
            secs(ser.exec()),
        ]);
        table_row(&[
            "PR".into(),
            label.into(),
            "gc_s".into(),
            secs(spark.gc()),
            secs(deca.gc()),
            secs(ser.gc()),
        ]);
    }

    // ------------------------------------------- per-object ser costs
    println!("\n# per-object (de-)serialization (10-dim LabeledPoint):");
    let recs: Vec<LabeledPointRec> = deca_apps::datagen::labeled_vectors(10_000, 10, 5);

    let mut kryo = KryoSim::new();
    let buf = kryo.serialize_all(&recs);
    let _back: Vec<LabeledPointRec> = kryo.deserialize_all(&buf);
    println!(
        "kryo:  serialize {:>8.1} ns/obj   deserialize {:>8.1} ns/obj",
        kryo.avg_ser().as_nanos() as f64,
        kryo.avg_deser().as_nanos() as f64
    );

    let size = recs[0].data_size();
    let mut flat = vec![0u8; size * recs.len()];
    let t = Instant::now();
    for (i, r) in recs.iter().enumerate() {
        r.encode(&mut flat[i * size..(i + 1) * size]);
    }
    let deca_ser = t.elapsed().as_nanos() as f64 / recs.len() as f64;
    let t = Instant::now();
    let mut sum = 0.0;
    for chunk in flat.chunks_exact(size) {
        // In-place field access: the Deca "deserialization" equivalent.
        sum += f64::from_le_bytes(chunk[..8].try_into().unwrap());
    }
    std::hint::black_box(sum);
    let deca_read = t.elapsed().as_nanos() as f64 / recs.len() as f64;
    println!(
        "deca:  serialize {deca_ser:>8.1} ns/obj   in-place read {deca_read:>8.1} ns/obj (no deserialization)"
    );
}
