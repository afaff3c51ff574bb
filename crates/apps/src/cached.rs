//! The cached input RDD of the iterative apps (LR, KMeans, PageRank,
//! ConnectedComponents): one block per partition, built by a load stage
//! and scanned by every later stage's task of the same index.

use std::collections::HashMap;
use std::sync::Mutex;

use deca_engine::cache::BlockId;
use deca_engine::{EngineError, Executor, JobCtx, TaskContext};

/// The block map is only locked for one insert or lookup, which cannot
/// panic, so no lock is ever poisoned.
const UNPOISONED: &str = "no task panics while holding the block map";

/// Caches partition `task`'s block on an executor: the lineage of the
/// cached RDD.
type Lineage<'a> = Box<dyn Fn(&mut Executor, usize) -> Result<BlockId, EngineError> + Sync + 'a>;

/// Partition blocks keyed by `(executor, task)`, plus the lineage that
/// rebuilds one. Tasks are pinned round-robin, so the load stage caches
/// partition `p` on executor `p % E`, where every later stage's task `p`
/// finds it executor-local.
pub(crate) struct CachedBlocks<'a> {
    load: Lineage<'a>,
    blocks: Mutex<HashMap<(usize, usize), BlockId>>,
}

impl<'a> CachedBlocks<'a> {
    /// Run the load stage `stage`, caching partition `task` with
    /// `load(executor, task)`, then note the job's cache footprint.
    pub(crate) fn load(
        job_ctx: &mut JobCtx,
        stage: &str,
        partitions: usize,
        load: impl Fn(&mut Executor, usize) -> Result<BlockId, EngineError> + Sync + 'a,
    ) -> Result<CachedBlocks<'a>, EngineError> {
        let cached = CachedBlocks { load: Box::new(load), blocks: Mutex::new(HashMap::new()) };
        job_ctx.run_stage(stage, partitions, |ctx, e| {
            let block = (cached.load)(e, ctx.task)?;
            cached.blocks.lock().expect(UNPOISONED).insert((ctx.executor, ctx.task), block);
            Ok(())
        })?;
        job_ctx.note_cache_bytes();
        Ok(cached)
    }

    /// The block of partition `ctx.task` on this attempt's executor. The
    /// handle is only trusted if the cache still holds the block: an
    /// attempt that was retried or stolen onto another executor, or that
    /// follows a crash restart which wiped the block, recaches the
    /// partition first (lineage recompute), so the scanned bytes are
    /// identical wherever the task lands.
    pub(crate) fn get(&self, ctx: &TaskContext, e: &mut Executor) -> Result<BlockId, EngineError> {
        let key = (ctx.executor, ctx.task);
        let cached = self.blocks.lock().expect(UNPOISONED).get(&key).copied();
        match cached.filter(|b| e.cache.contains(*b)) {
            Some(block) => Ok(block),
            None => {
                let block = (self.load)(e, ctx.task)?;
                self.blocks.lock().expect(UNPOISONED).insert(key, block);
                Ok(block)
            }
        }
    }
}
