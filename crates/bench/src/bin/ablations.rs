//! Ablations of Deca's design choices (DESIGN.md §3):
//!
//! * **page size** (§2.3/§4.3.1): too small ⇒ many traced page objects and
//!   per-page overhead; too large ⇒ wasted tail space;
//! * **segment reuse** (§4.3.2): combining in place vs appending a new
//!   value segment per combine (what a naive implementation would do);
//! * **pointer-array elision** (§4.3.2): SFST key/value pairs need no
//!   pointer array — measured as table overhead per entry;
//! * **phased refinement** (§3.4): how many of the workload UDTs become
//!   decomposable with and without it.

#![forbid(unsafe_code)]

use std::time::Instant;

use deca_bench::{mb, table_header, table_row};
use deca_core::{DecaCacheBlock, DecaHashShuffle, DecaVarHashShuffle, MemoryManager};
use deca_heap::{GcPlanKind, Heap, HeapConfig};
use deca_udt::fixtures::group_by_program;
use deca_udt::{classify_phased, GlobalAnalysis, JobPhases, TypeRef};

fn main() {
    page_size_ablation();
    segment_reuse_ablation();
    pointer_array_elision_ablation();
    thrash_avoidance_ablation();
    full_gc_strategy_ablation();
    phased_refinement_ablation();
}

/// Sweep the page size and report GC-visible object count, wasted bytes,
/// and footprint for a fixed cache.
fn page_size_ablation() {
    println!("# Ablation: page size (fixed 4MB of 88-byte records)\n");
    table_header(&["page_size", "pages(GC-traced)", "wasted_MB", "footprint_MB", "full_gc_us"]);
    let rec: (f64, Vec<f64>) = (1.0, vec![0.5; 10]); // 88+4 framed bytes
    for &page in &[512usize, 4 << 10, 64 << 10, 1 << 20, 8 << 20] {
        let mut heap = Heap::new(HeapConfig::with_total(96 << 20));
        let mut mm = MemoryManager::new(page, std::env::temp_dir().join("deca-abl"));
        let mut block = DecaCacheBlock::new::<(f64, Vec<f64>)>(&mut mm);
        for _ in 0..45_000 {
            block.append(&mut mm, &mut heap, &rec).unwrap();
        }
        let t = Instant::now();
        heap.full_gc();
        let gc = t.elapsed();
        let footprint = block.footprint(&mut mm, &mut heap).unwrap();
        table_row(&[
            format!("{}", page),
            format!("{}", heap.external_count()),
            mb(footprint.saturating_sub(45_000 * 92)),
            mb(footprint),
            format!("{:.1}", gc.as_secs_f64() * 1e6),
        ]);
        block.release(&mut mm, &mut heap);
    }
    println!();
}

/// Compare in-place combining against append-per-combine.
fn segment_reuse_ablation() {
    println!("# Ablation: shuffle value segment reuse (1M combines, 1000 keys)\n");
    table_header(&["strategy", "footprint_MB", "time_ms"]);

    // With reuse (the Deca design).
    {
        let mut heap = Heap::new(HeapConfig::with_total(96 << 20));
        let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-abl"));
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let t = Instant::now();
        for i in 0..1_000_000i64 {
            let k = (i % 1000).to_le_bytes();
            buf.insert(&mut mm, &mut heap, &k, &1i64.to_le_bytes(), |acc, add| {
                let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
                let b = i64::from_le_bytes(add[..8].try_into().unwrap());
                acc[..8].copy_from_slice(&(a + b).to_le_bytes());
            })
            .unwrap();
        }
        let elapsed = t.elapsed();
        table_row(&[
            "reuse-in-place".into(),
            mb(heap.external_bytes()),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
        buf.release(&mut mm, &mut heap);
    }

    // Without reuse: append a new segment per combine (naive).
    {
        let mut heap = Heap::new(HeapConfig::with_total(512 << 20));
        let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-abl"));
        let mut group_block = DecaCacheBlock::new::<(i64, i64)>(&mut mm);
        let mut latest: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        let t = Instant::now();
        for i in 0..1_000_000i64 {
            let k = i % 1000;
            let v = latest.get(&k).copied().unwrap_or(0) + 1;
            latest.insert(k, v);
            group_block.append(&mut mm, &mut heap, &(k, v)).unwrap(); // dead segments pile up
        }
        let elapsed = t.elapsed();
        table_row(&[
            "append-per-combine".into(),
            mb(heap.external_bytes()),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
        group_block.release(&mut mm, &mut heap);
    }
    println!();
}

/// Quantify §4.3.2's pointer-array elision: the same fixed-size-key
/// aggregation through the elided buffer (offsets computed, value follows
/// key) vs the general pointer-table buffer (framed keys + Slot entries).
fn pointer_array_elision_ablation() {
    println!("# Ablation: pointer-array elision (1M inserts, 50k 8-byte keys)\n");
    table_header(&["buffer", "footprint_MB", "time_ms"]);
    let keys: Vec<[u8; 8]> = (0..1_000_000i64).map(|i| (i % 50_000).to_le_bytes()).collect();
    let one = 1i64.to_le_bytes();
    let add = |acc: &mut [u8], add: &[u8]| {
        let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
        let b = i64::from_le_bytes(add[..8].try_into().unwrap());
        acc[..8].copy_from_slice(&(a + b).to_le_bytes());
    };

    {
        let mut heap = Heap::new(HeapConfig::with_total(96 << 20));
        let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-abl"));
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let t = Instant::now();
        for k in &keys {
            buf.insert(&mut mm, &mut heap, k, &one, add).unwrap();
        }
        let elapsed = t.elapsed();
        table_row(&[
            "elided (SFST fast path)".into(),
            mb(heap.external_bytes()),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
        buf.release(&mut mm, &mut heap);
    }
    {
        let mut heap = Heap::new(HeapConfig::with_total(96 << 20));
        let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-abl"));
        let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
        let t = Instant::now();
        for k in &keys {
            buf.insert(&mut mm, &mut heap, k, &one, add).unwrap();
        }
        let elapsed = t.elapsed();
        table_row(&[
            "pointer table (general)".into(),
            mb(heap.external_bytes()),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
        buf.release(&mut mm, &mut heap);
    }
    println!();
}

/// §4.3.2's thrash avoidance: when a phase changes decomposed objects'
/// data-sizes, Deca re-constructs them — and never re-decomposes that
/// container. Without the rule, every job pays a decompose + reconstruct
/// round trip.
fn thrash_avoidance_ablation() {
    println!("# Ablation: re-decomposition thrash avoidance (8 jobs over a mutating cache)\n");
    table_header(&["policy", "decompositions", "reconstructions", "time_ms"]);

    let base: Vec<(i64, Vec<f64>)> = (0..20_000).map(|i| (i, vec![i as f64; 4])).collect();

    for avoidance in [true, false] {
        let mut heap = Heap::new(HeapConfig::with_total(96 << 20));
        let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-abl"));
        let mut records = base.clone();
        let mut decompositions = 0u32;
        let mut reconstructions = 0u32;
        let mut decomposed: Option<DecaCacheBlock> = None;
        let t = Instant::now();
        for job in 0..8 {
            if decomposed.is_none() && (!avoidance || reconstructions == 0) {
                // (Re-)decompose the cache.
                let mut block = DecaCacheBlock::new::<(i64, Vec<f64>)>(&mut mm);
                for r in &records {
                    block.append(&mut mm, &mut heap, r).unwrap();
                }
                decompositions += 1;
                decomposed = Some(block);
            }
            // The job grows every record's vector: a data-size change that
            // forces re-construction of decomposed blocks.
            if let Some(mut block) = decomposed.take() {
                records = block.decode_all(&mut mm, &mut heap).unwrap();
                block.release(&mut mm, &mut heap);
                reconstructions += 1;
            }
            for r in &mut records {
                r.1.push(job as f64);
            }
        }
        if let Some(mut block) = decomposed.take() {
            block.release(&mut mm, &mut heap);
        }
        let elapsed = t.elapsed();
        table_row(&[
            if avoidance { "avoidance-on (paper)" } else { "re-decompose-every-job" }.into(),
            decompositions.to_string(),
            reconstructions.to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
    }
    println!();
}

/// Compare the full-collection strategies on a mixed-lifetime workload:
/// the copying plans pay to move every survivor; the sweeping plans leave
/// survivors in place but fragment the old generation (CMS's real
/// trade-off, §2.1), with immix recycling only coarse holes.
fn full_gc_strategy_ablation() {
    println!("# Ablation: GC plan (mixed-lifetime churn, 6 collections)\n");
    table_header(&["plan", "total_gc_ms", "old_arena_KB", "free_blocks"]);
    for kind in GcPlanKind::ALL {
        let mut h =
            Heap::new(HeapConfig::with_total(24 << 20).with_plan(kind).with_concurrent(false));
        let small =
            h.define_class(deca_heap::ClassBuilder::new("S").field("v", deca_heap::FieldKind::I64));
        let arr = h.define_array_class("long[]", deca_heap::FieldKind::I64);
        // Interleave long-living small objects with medium arrays so dead
        // arrays leave isolated holes between survivors (worst case for a
        // non-compacting sweep).
        let mut keep = Vec::new();
        let mut batch = Vec::new();
        for i in 0..8_000 {
            let o = h.alloc(small).unwrap();
            keep.push(h.add_root(o));
            if i % 20 == 0 {
                let a = h.alloc_array(arr, 128).unwrap();
                batch.push(h.add_root(a));
            }
        }
        // Six rounds: drop the arrays, collect, pin a fresh interleaving.
        for _ in 0..6 {
            h.full_gc();
            for r in batch.drain(..) {
                h.remove_root(r);
            }
            h.full_gc();
            for i in 0..400 {
                let a = h.alloc_array(arr, 128).unwrap();
                batch.push(h.add_root(a));
                if i % 4 == 0 {
                    let o = h.alloc(small).unwrap();
                    keep.push(h.add_root(o));
                }
            }
        }
        let old_kb = h.old_used_bytes() / 1024;
        table_row(&[
            kind.to_string(),
            format!("{:.2}", h.stats().full_time.as_secs_f64() * 1e3),
            old_kb.to_string(),
            // Free-list length is only populated by mark-sweep.
            format!("{}", h.free_block_count()),
        ]);
    }
    println!();
}

/// Count decomposable container types with and without phased refinement.
fn phased_refinement_ablation() {
    println!("# Ablation: phased refinement (groupByKey job, §3.4)\n");
    let g = group_by_program();
    let ty = TypeRef::Udt(g.group);

    // Without phased refinement: one scope covering the whole job (both
    // phases' methods reachable from a synthetic whole-job entry is not
    // expressible here, so the paper's fallback is the *writing* phase).
    let whole = GlobalAnalysis::new(&g.registry, &g.program, g.build_entry);
    let without = whole.classify(ty);

    // With phased refinement: per-phase classification.
    let phases = JobPhases::new().phase("combine", g.build_entry).phase("iterate", g.read_entry);
    let per_phase = classify_phased(&g.registry, &g.program, &phases, &[ty]);

    println!("without phased refinement: Group = {without}  (never decomposable)");
    for p in &per_phase {
        println!("with    phased refinement: phase {:<8} Group = {}", p.phase, p.of(ty).unwrap());
    }
    println!(
        "=> phased refinement makes the cached copy decomposable in the read phase\n   (the partially-decomposable case of Figure 7b)"
    );
}
