//! The two layers PageRank and ConnectedComponents share (§6.3): the
//! cached adjacency RDD and the per-iteration message shuffle. The apps
//! differ only in the message a vertex sends along an edge and in how
//! messages to one vertex combine (f64 sum for ranks, i64 min for
//! labels).
//!
//! The adjacency build is the §4.3.3 partially-decomposable scenario
//! (Figure 7b): while grouping, the value lists are VSTs (heap objects in
//! *every* mode, including Deca), but the output copied into the cache is
//! an RFST which Deca decomposes into framed page segments. The dying
//! grouping buffer is then reclaimed wholesale.
//!
//! An `adj-build` stage caches partition `p`'s block on executor `p % E`
//! (tasks are pinned round-robin, so every iteration's map task `p` finds
//! its block executor-local). Each iteration is then a map/exchange/reduce
//! shuffle job: the map task scans its block, emits messages in the
//! mode's representation and combines them eagerly, then writes one run
//! per reducer (serialized in Spark modes, raw bytes handed over without
//! a copy in Deca); the reduce task combines the mappers' subtotals in
//! map-task order. The combine sequence per vertex is therefore a
//! function of the partitioning alone, never of the cluster shape.

use deca_core::optimizer::ContainerDecision;
use deca_core::{DecaHashShuffle, DecaRecord, Optimizer};
use deca_engine::cache::BlockId;
use deca_engine::record::{HeapRecord, KryoRecord, PairClasses};
use deca_engine::{
    EngineError, ExecutionMode, Executor, JobCtx, MapOutputs, Record, ShufflePayload,
    SparkGroupShuffle, SparkHashShuffle,
};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::cached::CachedBlocks;
use crate::records::AdjListRec;

/// A graph's cached adjacency lists, one block per edge partition.
pub(crate) struct Adjacency {
    blocks: CachedBlocks<'static>,
    partitions: usize,
    mode: ExecutionMode,
}

/// Run the `adj-build` stage: partition `edges` by source vertex, group
/// each partition into sorted adjacency lists and cache them on the
/// task's executor.
pub(crate) fn cache_adjacency(
    job_ctx: &mut JobCtx,
    edges: &[(u32, u32)],
    partitions: usize,
    mode: ExecutionMode,
) -> Result<Adjacency, EngineError> {
    if mode == ExecutionMode::Deca {
        assert_deca_plan();
    }
    // Spark's hash partitioner on the source vertex.
    let mut parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); partitions];
    for &(s, d) in edges {
        parts[s as usize % partitions].push((s, d));
    }
    let blocks = CachedBlocks::load(job_ctx, "adj-build", partitions, move |e, task| {
        build_block(e, &parts[task], mode)
    })?;
    Ok(Adjacency { blocks, partitions, mode })
}

/// Group one partition's edges into sorted adjacency lists and copy them
/// into the executor's cache in the mode's representation.
fn build_block(
    e: &mut Executor,
    part: &[(u32, u32)],
    mode: ExecutionMode,
) -> Result<BlockId, EngineError> {
    let classes = AdjListRec::register(&mut e.heap);
    // The grouping buffer holds heap objects in every mode: its content
    // is a VST while being built (§4.3.3).
    let mut buf: SparkGroupShuffle<u32, i64> = SparkGroupShuffle::new(&mut e.heap);
    let grouped = part.iter().try_for_each(|&(s, d)| buf.append(&mut e.heap, s, d as i64));
    // Copy into the cache, then release the dying buffer, which an OOM
    // must not leave rooted either.
    let block = grouped.map_err(EngineError::from).and_then(|()| {
        let mut adj: Vec<AdjListRec> = Vec::new();
        buf.for_each_group(&e.heap, |&vertex, values| {
            let neighbors = values.into_iter().map(|v| v as u32).collect();
            adj.push(AdjListRec { vertex, neighbors });
        });
        adj.sort_by_key(|a| a.vertex);
        Ok(e.cache_put(mode, &classes, &adj, None)?)
    });
    buf.release(&mut e.heap);
    block
}

/// Assert the Deca optimizer reproduces the §4.3.3 plan (VST grouping
/// buffer kept on the heap, adjacency cache decomposed on copy) before the
/// engine follows it. Driver-side, once per job.
fn assert_deca_plan() {
    let analysis = deca_udt::fixtures::group_by_program();
    let opt = Optimizer::new(&analysis.registry, &analysis.program);
    let phases = JobPhases::new()
        .phase("combine", analysis.build_entry)
        .phase("iterate", analysis.read_entry);
    let shuffle = deca_core::ContainerInfo {
        id: ContainerId(0),
        kind: ContainerKind::ShuffleBuffer,
        created_seq: 0,
        content: TypeRef::Udt(analysis.group),
        write_phase: 0,
    };
    let cache = deca_core::ContainerInfo {
        id: ContainerId(1),
        kind: ContainerKind::CachedRdd,
        created_seq: 1,
        content: TypeRef::Udt(analysis.group),
        write_phase: 0,
    };
    let plan = opt.plan(&phases, &[shuffle, cache], &[]);
    assert!(
        matches!(plan.decision(ContainerId(0)), ContainerDecision::Keep(_)),
        "the grouping buffer must stay on the heap (VST while combining)"
    );
    assert_eq!(
        plan.decision(ContainerId(1)),
        &ContainerDecision::DecomposeOnCopy,
        "the adjacency cache decomposes when the dying shuffle's output is copied"
    );
}

impl Adjacency {
    /// Run one message-propagation shuffle job named `name`: for every
    /// edge `vertex → dst`, `messages(vertex, dst, out)` pushes the
    /// `(target, value)` messages it sends, and messages to one target
    /// fold with `combine(old, new)`. Returns each reduce task's combined
    /// `(target, value)` pairs, in reduce-task order.
    pub(crate) fn propagate<V>(
        &self,
        job_ctx: &mut JobCtx,
        name: &str,
        combine: impl Fn(V, V) -> V + Sync,
        messages: impl Fn(u32, u32, &mut Vec<(i64, V)>) + Sync,
    ) -> Result<Vec<Vec<(u32, V)>>, EngineError>
    where
        V: Record + Copy,
        (i64, V): HeapRecord<Classes = PairClasses> + KryoRecord,
    {
        let (mode, reducers) = (self.mode, self.partitions);
        job_ctx.run_shuffle_job(
            name,
            self.partitions,
            reducers,
            |ctx, e| {
                let block = self.blocks.get(ctx, e)?;
                // Message emission, eager combining and the per-reducer
                // write are all the shuffle write. The buffer is released
                // after the scope on the error path too (release is
                // idempotent), so a natural OOM leaves nothing rooted
                // behind for the engine's spill-and-rerun.
                match mode {
                    ExecutionMode::Deca => {
                        let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
                        let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                            deca_messages(e, block, &mut buf, &combine, &messages)?;
                            // Fixed 16-byte records into arena pages,
                            // handed over without a copy.
                            let mut runs: Vec<_> =
                                (0..reducers).map(|_| e.arena.new_run()).collect();
                            let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                            buf.for_each(mm, heap, |k, v| {
                                let r = (i64::decode(k) as u64 % reducers as u64) as usize;
                                runs[r].push_parts(arena, &[k, v]);
                            })?;
                            buf.release(&mut e.mm, &mut e.heap);
                            Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
                        });
                        buf.release(&mut e.mm, &mut e.heap);
                        out
                    }
                    _ => {
                        let classes = <(i64, V) as HeapRecord>::register(&mut e.heap);
                        let mut buf: SparkHashShuffle<i64, V> = SparkHashShuffle::new(&mut e.heap)?;
                        let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                            spark_messages(
                                e, block, mode, &mut buf, &classes, &combine, &messages,
                            )?;
                            // Serialized into pooled byte buffers (~2-byte
                            // tag + varint key + 8-byte value per record).
                            let cap = 16 * buf.len().div_ceil(reducers);
                            let mut out: Vec<Vec<u8>> =
                                (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                            let pairs = buf.drain(&e.heap);
                            e.kryo.time_ser(|kr| {
                                for (k, v) in pairs {
                                    let r = (k as u64 % reducers as u64) as usize;
                                    kr.serialize(&(k, v), &mut out[r]);
                                }
                            });
                            Ok(out.into_iter().map(ShufflePayload::from).collect())
                        });
                        buf.release(&mut e.heap);
                        out
                    }
                }
            },
            // Reduce: combine the mappers' subtotals in map-task order.
            |_ctx, e, bufs| {
                let mut combined: Vec<(u32, V)> = Vec::new();
                match mode {
                    ExecutionMode::Deca => {
                        let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
                        let read = e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                            // 16-byte records never span pages; chunk
                            // concatenation is the exact flat sequence.
                            for payload in bufs {
                                for bytes in payload.chunks() {
                                    for rec in bytes.chunks_exact(16) {
                                        let (mm, heap) = (&mut e.mm, &mut e.heap);
                                        buf.insert(mm, heap, &rec[..8], &rec[8..], |acc, add| {
                                            combine(V::decode(acc), V::decode(add)).encode(acc)
                                        })?;
                                    }
                                }
                            }
                            Ok(())
                        });
                        let read = read.and_then(|()| {
                            Ok(buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                                combined.push((i64::decode(k) as u32, V::decode(v)))
                            })?)
                        });
                        buf.release(&mut e.mm, &mut e.heap);
                        read?;
                    }
                    _ => {
                        let mut buf: SparkHashShuffle<i64, V> = SparkHashShuffle::new(&mut e.heap)?;
                        let read = e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                            for payload in bufs {
                                let bytes = payload.contiguous();
                                let pairs: Vec<(i64, V)> = e.kryo.deserialize_all(&bytes);
                                for (k, v) in pairs {
                                    buf.insert(&mut e.heap, k, v, &combine)?;
                                }
                            }
                            Ok(())
                        });
                        let read = read
                            .map(|()| buf.for_each(&e.heap, |k, v| combined.push((k as u32, v))));
                        buf.release(&mut e.heap);
                        read?;
                    }
                }
                Ok(combined)
            },
        )
    }
}

/// Emit and combine one block's messages in a Spark mode: every message
/// is a temporary heap tuple that dies once the combiner has consumed it.
/// Spark mode walks the cached heap objects; SparkSer deserializes the
/// block first.
fn spark_messages<V>(
    e: &mut Executor,
    block: BlockId,
    mode: ExecutionMode,
    buf: &mut SparkHashShuffle<i64, V>,
    classes: &PairClasses,
    combine: &impl Fn(V, V) -> V,
    messages: &impl Fn(u32, u32, &mut Vec<(i64, V)>),
) -> Result<(), EngineError>
where
    V: Record + Copy,
    (i64, V): HeapRecord<Classes = PairClasses>,
{
    let mut msgs: Vec<(i64, V)> = Vec::new();
    let mut send = |e: &mut Executor, msgs: &mut Vec<(i64, V)>| -> Result<(), EngineError> {
        for (k, v) in msgs.drain(..) {
            let tmp = (k, v).store(&mut e.heap, classes)?;
            let ts = e.heap.push_stack(tmp);
            let (k, v) = <(i64, V) as HeapRecord>::load(&e.heap, classes, e.heap.stack_ref(ts));
            e.heap.truncate_stack(ts);
            buf.insert(&mut e.heap, k, v, combine)?;
        }
        Ok(())
    };
    if mode == ExecutionMode::Spark {
        let (root, len) = e.cache.objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)?;
        for i in 0..len {
            // Read the record's edges before its messages allocate: a
            // collection may move it, so the next record is re-read
            // through the root.
            let v = e.heap.array_get_ref(e.heap.root_ref(root), i);
            let vertex = e.heap.read_word(v, 0) as u32;
            let edges = e.heap.read_ref(v, 1);
            for j in 0..e.heap.array_len(edges) {
                messages(vertex, e.heap.array_get_i32(edges, j) as u32, &mut msgs);
            }
            send(e, &mut msgs)?;
        }
    } else {
        let mut adj: Vec<AdjListRec> = Vec::new();
        e.cache.iter_serialized(block, &mut e.heap, &mut e.kryo, &mut e.mm, |r| adj.push(r))?;
        for a in adj {
            for &dst in &a.neighbors {
                messages(a.vertex, dst, &mut msgs);
            }
            send(e, &mut msgs)?;
        }
    }
    Ok(())
}

/// Emit and combine one block's messages in Deca mode: read vertex ids at
/// fixed offsets in the page bytes, combine into the byte-keyed buffer.
fn deca_messages<V: Record + Copy>(
    e: &mut Executor,
    block: BlockId,
    buf: &mut DecaHashShuffle,
    combine: &impl Fn(V, V) -> V,
    messages: &impl Fn(u32, u32, &mut Vec<(i64, V)>),
) -> Result<(), EngineError> {
    let (heap, mm) = (&mut e.heap, &mut e.mm);
    // Two-phase borrow: collect the message stream from the scan, then
    // insert (the scan holds the cache borrow).
    let mut msgs: Vec<(i64, V)> = Vec::new();
    let word = |bytes: &[u8], at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a 4-byte slice"))
    };
    e.cache.deca_block(block).scan_bytes(
        mm,
        heap,
        |bytes| {
            let vertex = word(bytes, 0);
            for j in 0..word(bytes, 4) as usize {
                messages(vertex, word(bytes, 8 + j * 4), &mut msgs);
            }
        },
        |_| {},
    )?;
    let mut val = [0u8; 8];
    for (k, v) in msgs {
        v.encode(&mut val);
        buf.insert(mm, heap, &k.to_le_bytes(), &val, |acc, add| {
            combine(V::decode(acc), V::decode(add)).encode(acc)
        })?;
    }
    Ok(())
}
