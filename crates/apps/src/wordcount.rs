//! WordCount (§6.1, Figure 8): two stages, one job, no cache, aggregated
//! (hash-based, eagerly-combined) shuffle.
//!
//! In Spark mode, every input word emits a temporary `Tuple2` object graph
//! that dies after the combiner consumes it, and every combine allocates a
//! fresh boxed count — the object churn whose census Figure 8(a) plots. In
//! Deca mode the combiner reuses the aggregate value's page segment in
//! place (§4.3.2) and the shuffle write is a raw byte copy.
//!
//! The job is described once as an [`AppJob`] ([`job`] for the integer-id
//! input, [`text_job`] for text tokens): one map task per partition, an
//! all-to-all exchange, one reduce task per partition. The same
//! description runs standalone ([`crate::run_job_local`]) or submitted to
//! a [`deca_engine::DecaServer`], with bit-identical results for any
//! executor count (the word checksums are integer-valued f64 sums, exact
//! under any addition order).

use deca_core::{DecaHashShuffle, DecaRecord, DecaVarHashShuffle};
use deca_engine::record::HeapRecord;
use deca_engine::{
    AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx, MapOutputs, ShufflePayload,
    SparkHashShuffle,
};

use crate::datagen;

/// Parameters of one WordCount run.
#[derive(Clone, Debug)]
pub struct WcParams {
    pub words: usize,
    pub distinct: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub mode: ExecutionMode,
    pub seed: u64,
    /// Sample the Tuple2 lifetime timeline every this many records
    /// (0 = off). Drives Figure 8(a).
    pub sample_every: usize,
}

impl WcParams {
    pub fn small(mode: ExecutionMode) -> WcParams {
        WcParams {
            words: 200_000,
            distinct: 10_000,
            partitions: 4,
            heap_bytes: 24 << 20,
            mode,
            seed: 20160901,
            sample_every: 0,
        }
    }
}

/// The executor configuration WordCount runs under (public so the
/// scheduler-equivalence tests can build sessions with the exact same
/// memory split, then vary retry policy and scheduler mode).
pub fn wc_config(params: &WcParams) -> ExecutorConfig {
    ExecutorConfig::builder()
        .mode(params.mode)
        .heap_bytes(params.heap_bytes)
        .shuffle_fraction(0.6)
        .storage_fraction(0.2)
        .build()
}

/// The WordCount job description: consumed by `DecaServer::submit`
/// (via `JobSpec::app`) and by the standalone runners. WordCount's tasks
/// depend only on `(task index, partition data)` — never on cross-stage
/// executor-local state — so retried or stolen tasks may migrate freely.
pub fn job(params: &WcParams) -> AppJob {
    let p = params.clone();
    AppJob::new("WC", move |ctx| {
        let data = datagen::zipf_words(p.words, p.distinct, p.seed);
        let parts = datagen::partition(&data, p.partitions);
        let reducers = p.partitions;
        match p.mode {
            ExecutionMode::Spark | ExecutionMode::SparkSer => {
                run_spark(ctx, &parts, reducers, p.sample_every)
            }
            ExecutionMode::Deca => run_deca(ctx, &parts, reducers, p.sample_every),
        }
    })
}

fn run_spark(
    ctx: &mut JobCtx,
    parts: &[Vec<i64>],
    reducers: usize,
    sample_every: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wc",
        parts.len(),
        reducers,
        // ------------------------------------------------------------- map
        // One map task per partition: eager map-side combining, then a
        // serialized shuffle write per reduce partition.
        |ctx, e| {
            let pair_classes = <(i64, i64) as HeapRecord>::register(&mut e.heap);
            let mut buf: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut e.heap)?;
            for (i, &word) in parts[ctx.task].iter().enumerate() {
                // The map UDF emits a Tuple2 that dies after combining.
                let tuple = (word, 1i64);
                let tobj = tuple.store(&mut e.heap, &pair_classes)?;
                let ts = e.heap.push_stack(tobj);
                let (k, v) =
                    <(i64, i64) as HeapRecord>::load(&e.heap, &pair_classes, e.heap.stack_ref(ts));
                e.heap.truncate_stack(ts);
                buf.insert(&mut e.heap, k, v, |a, b| a + b)?;
                if sample_every != 0 && i % sample_every == 0 {
                    e.sample_timeline(pair_classes.tuple);
                }
            }
            // Shuffle write: Spark serializes combined pairs per reducer,
            // into pooled buffers reused across shuffle rounds.
            let out = e.shuffle_write_scope(|e| {
                let pairs = buf.drain(&e.heap);
                // ~2-byte tag + two small varints per pair; pre-size each
                // run near its share so the encode loop never reallocates.
                let cap = 8 * pairs.len().div_ceil(reducers);
                let mut out: Vec<Vec<u8>> =
                    (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                e.kryo.time_ser(|kr| {
                    for (k, v) in pairs {
                        let r = (k as u64 % reducers as u64) as usize;
                        kr.serialize(&(k, v), &mut out[r]);
                    }
                });
                out.into_iter().map(ShufflePayload::from).collect::<MapOutputs>()
            });
            buf.release(&mut e.heap);
            Ok(out)
        },
        // ---------------------------------------------------------- reduce
        |_ctx, e, bufs| {
            let mut buf: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut e.heap)?;
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                for payload in bufs {
                    let bytes = payload.contiguous();
                    let pairs: Vec<(i64, i64)> = e.kryo.deserialize_all(&bytes);
                    for (k, v) in pairs {
                        buf.insert(&mut e.heap, k, v, |a, b| a + b)?;
                    }
                }
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&e.heap, |k, v| {
                sum += (k as f64 + 1.0) * v as f64;
            });
            buf.release(&mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

fn run_deca(
    ctx: &mut JobCtx,
    parts: &[Vec<i64>],
    reducers: usize,
    sample_every: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wc",
        parts.len(),
        reducers,
        |ctx, e| {
            // For the lifetime comparison we still register the Tuple2
            // classes so the census has the same class to count — Deca
            // simply never instantiates them (the transformed code writes
            // bytes directly).
            let pair_classes = <(i64, i64) as HeapRecord>::register(&mut e.heap);
            let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
            let mut kb = [0u8; 8];
            let one = 1i64.to_le_bytes();
            for (i, &word) in parts[ctx.task].iter().enumerate() {
                kb.copy_from_slice(&word.to_le_bytes());
                buf.insert(&mut e.mm, &mut e.heap, &kb, &one, add_i64_bytes)?;
                if sample_every != 0 && i % sample_every == 0 {
                    e.sample_timeline(pair_classes.tuple);
                }
            }
            // Shuffle write: raw bytes straight into arena pages, handed
            // to the exchange without a copy (§6.1 + zero-copy hand-over).
            let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                buf.for_each(mm, heap, |k, v| {
                    let key = i64::from_le_bytes(k[..8].try_into().unwrap());
                    let r = (key as u64 % reducers as u64) as usize;
                    runs[r].push_parts(arena, &[k, v]);
                })?;
                Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(out)
        },
        |_ctx, e, bufs| {
            let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                // Records never span pages, so each chunk holds whole
                // 16-byte records and the concatenation is the exact byte
                // sequence a flat buffer would carry.
                for payload in bufs {
                    for bytes in payload.chunks() {
                        for rec in bytes.chunks_exact(16) {
                            buf.insert(
                                &mut e.mm,
                                &mut e.heap,
                                &rec[..8],
                                &rec[8..],
                                add_i64_bytes,
                            )?;
                        }
                    }
                }
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                let key = i64::decode(k);
                let count = i64::decode(v);
                sum += (key as f64 + 1.0) * count as f64;
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

// =====================================================================
// Text-keyed WordCount (the paper's actual input is text): exercises the
// variable-size-key shuffle with its mandatory pointer array (§4.3.2).
// =====================================================================

/// Render a word id as its text token (variable lengths, as real words).
fn word_text(id: i64) -> String {
    format!("w{}{}", id, "x".repeat((id % 11) as usize))
}

/// The text-keyed WordCount job description. Spark mode materialises each
/// token as a `java.lang.String` + `char[]` graph (what
/// `textFile().flatMap(split)` produces) and the buffer holds String keys;
/// Deca mode stores UTF-8 key bytes framed in pages behind a pointer
/// array.
pub fn text_job(params: &WcParams) -> AppJob {
    let p = params.clone();
    AppJob::new("WC-text", move |ctx| {
        let ids = datagen::zipf_words(p.words, p.distinct, p.seed);
        let parts = datagen::partition(&ids, p.partitions);
        let reducers = p.partitions;
        match p.mode {
            ExecutionMode::Spark | ExecutionMode::SparkSer => run_text_spark(ctx, &parts, reducers),
            ExecutionMode::Deca => run_text_deca(ctx, &parts, reducers),
        }
    })
}

fn text_checksum(word: &str, count: i64) -> f64 {
    (word.len() as f64 + word.as_bytes()[1] as f64) * count as f64
}

fn run_text_spark(
    ctx: &mut JobCtx,
    parts: &[Vec<i64>],
    reducers: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wct",
        parts.len(),
        reducers,
        |ctx, e| {
            let str_classes = <String as HeapRecord>::register(&mut e.heap);
            let mut buf: SparkHashShuffle<String, i64> = SparkHashShuffle::new(&mut e.heap)?;
            for &id in &parts[ctx.task] {
                // The tokenizer materialises a temporary String graph.
                let token = word_text(id);
                let tok_obj = token.store(&mut e.heap, &str_classes)?;
                let ts = e.heap.push_stack(tok_obj);
                let word = String::load(&e.heap, &str_classes, e.heap.stack_ref(ts));
                e.heap.truncate_stack(ts);
                buf.insert(&mut e.heap, word, 1, |a, b| a + b)?;
            }
            let out = e.shuffle_write_scope(|e| {
                let pairs = buf.drain(&e.heap);
                // Tokens average ~8 bytes plus framing and the count.
                let cap = 24 * pairs.len().div_ceil(reducers);
                let mut out: Vec<Vec<u8>> =
                    (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                e.kryo.time_ser(|kr| {
                    for (k, v) in pairs {
                        let r = (k.len() + k.as_bytes()[1] as usize) % reducers;
                        kr.serialize(&k, &mut out[r]);
                        kr.serialize(&v, &mut out[r]);
                    }
                });
                out.into_iter().map(ShufflePayload::from).collect::<MapOutputs>()
            });
            buf.release(&mut e.heap);
            Ok(out)
        },
        |_ctx, e, bufs| {
            let mut buf: SparkHashShuffle<String, i64> = SparkHashShuffle::new(&mut e.heap)?;
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                for payload in bufs {
                    let bytes = payload.contiguous();
                    let bytes: &[u8] = &bytes;
                    // Heterogeneous stream (String, i64, String, …):
                    // decode pairwise under one scoped timer, insert after.
                    let pairs: Vec<(String, i64)> = e.kryo.time_deser(|kr| {
                        let mut pairs = Vec::new();
                        let mut pos = 0;
                        while pos < bytes.len() {
                            let k: String = kr.deserialize(bytes, &mut pos);
                            let v: i64 = kr.deserialize(bytes, &mut pos);
                            pairs.push((k, v));
                        }
                        pairs
                    });
                    for (k, v) in pairs {
                        buf.insert(&mut e.heap, k, v, |a, b| a + b)?;
                    }
                }
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&e.heap, |k, v| sum += text_checksum(&k, v));
            buf.release(&mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

fn run_text_deca(
    ctx: &mut JobCtx,
    parts: &[Vec<i64>],
    reducers: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wct",
        parts.len(),
        reducers,
        |ctx, e| {
            let mut buf = DecaVarHashShuffle::new(&mut e.mm, 8);
            for &id in &parts[ctx.task] {
                let token = word_text(id); // transformed code keeps bytes only
                buf.insert(
                    &mut e.mm,
                    &mut e.heap,
                    token.as_bytes(),
                    &1i64.to_le_bytes(),
                    add_i64_bytes,
                )?;
            }
            // Raw framed records (u32 key len + key + 8-byte count) written
            // whole into arena pages and handed over copy-free.
            let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                buf.for_each(mm, heap, |k, v| {
                    let r = (k.len() + k[1] as usize) % reducers;
                    runs[r].push_parts(arena, &[&(k.len() as u32).to_le_bytes(), k, v]);
                })?;
                Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(out)
        },
        |_ctx, e, bufs| {
            let mut buf = DecaVarHashShuffle::new(&mut e.mm, 8);
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                // Frames never span pages, so each chunk parses standalone.
                for payload in bufs {
                    for bytes in payload.chunks() {
                        let mut pos = 0;
                        while pos < bytes.len() {
                            let klen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap())
                                as usize;
                            pos += 4;
                            let key = &bytes[pos..pos + klen];
                            pos += klen;
                            let val = &bytes[pos..pos + 8];
                            pos += 8;
                            buf.insert(&mut e.mm, &mut e.heap, key, val, add_i64_bytes)?;
                        }
                    }
                }
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                let word = std::str::from_utf8(k).expect("utf8");
                sum += text_checksum(word, i64::decode(v));
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

fn add_i64_bytes(acc: &mut [u8], add: &[u8]) {
    let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
    let b = i64::from_le_bytes(add[..8].try_into().unwrap());
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_job_local, AppReport};

    fn report(p: &WcParams, width: usize) -> AppReport {
        run_job_local(&job(p), wc_config(p), width)
    }

    fn tiny(mode: ExecutionMode) -> WcParams {
        WcParams {
            words: 20_000,
            distinct: 500,
            partitions: 3,
            heap_bytes: 16 << 20,
            mode,
            seed: 7,
            sample_every: 0,
        }
    }

    #[test]
    fn spark_and_deca_agree() {
        let spark = report(&tiny(ExecutionMode::Spark), 1);
        let deca = report(&tiny(ExecutionMode::Deca), 1);
        assert_eq!(spark.checksum, deca.checksum, "same aggregation result");
        assert!(spark.checksum > 0.0);
    }

    #[test]
    fn text_mode_agrees_across_spark_and_deca() {
        let text = |p: &WcParams| run_job_local(&text_job(p), wc_config(p), 1);
        let spark = text(&tiny(ExecutionMode::Spark));
        let deca = text(&tiny(ExecutionMode::Deca));
        assert_eq!(spark.checksum, deca.checksum);
        assert!(spark.checksum > 0.0);
    }

    #[test]
    fn spark_mode_churns_objects_deca_does_not() {
        let mut p = tiny(ExecutionMode::Spark);
        p.sample_every = 1000;
        let spark = report(&p, 1);
        let mut p = tiny(ExecutionMode::Deca);
        p.sample_every = 1000;
        let deca = report(&p, 1);
        assert!(
            spark.timeline.peak_live() > 100,
            "Spark: temporary tuples populate the heap (peak {})",
            spark.timeline.peak_live()
        );
        assert_eq!(deca.timeline.peak_live(), 0, "Deca: no Tuple2 is ever instantiated");
    }

    #[test]
    fn executor_count_does_not_change_results() {
        for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
            let one = report(&tiny(mode), 1);
            let four = report(&tiny(mode), 4);
            assert_eq!(one.checksum, four.checksum, "{mode}");
        }
    }
}
