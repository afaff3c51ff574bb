//! # deca-heap — a simulated managed-runtime heap with a tracing GC
//!
//! This crate is the *substrate* of the Deca reproduction. The paper
//! ("Lifetime-Based Memory Management for Distributed Data Processing
//! Systems", PVLDB 9(12), 2016) attacks the cost of tracing garbage
//! collection in JVM-based data processing systems. Rust has no tracing
//! collector, so we build one: a generational heap whose collection cost is
//! *real tracing work* over *real object graphs*, not a synthetic counter.
//!
//! ## Model
//!
//! * Objects live in per-space word arenas (`Vec<u64>`), each object being a
//!   two-word header followed by one word per field (or array element).
//! * The heap is generational: a bump-allocated **eden**, two **survivor**
//!   semispaces, and an **old** space. Minor collections copy live young
//!   objects (Cheney scan) and promote by age; full collections trace and
//!   compact *everything* — which is exactly what makes a heap full of
//!   millions of long-living cached objects expensive (paper §2.1, §6.2).
//! * A write barrier maintains a remembered set of old→young edges so minor
//!   collections do not scan the old generation.
//! * Collection policy is a pluggable **plan** ([`GcPlanKind`], MMTk-style):
//!   semispace, generational copying, mark-sweep, or immix-style coarse
//!   sweeping. Full collections mark in parallel over a work-stealing pool
//!   (`HeapConfig::gc_threads`), and the concurrent plans mark the old
//!   generation on a racing thread with an SATB dirty log, retiring the
//!   cycle at a short stop-the-world remark.
//! * Object sizes are *accounted* using JVM layout rules (16-byte header,
//!   8-byte alignment) so that "cached data size" measurements reproduce the
//!   paper's object-header bloat (Figure 2).
//! * Byte-array "pages" created by the Deca memory manager are registered as
//!   **external allocations**: they consume old-generation budget but add
//!   only one traced pseudo-object each — the paper's "GC only needs to
//!   trace a few byte arrays" (§2.3).
//!
//! ## Invariants callers must uphold
//!
//! Any [`ObjRef`] held across an allocation must be reachable from a root
//! ([`Heap::add_root`] or the stack-root region, [`Heap::push_stack`]),
//! because a collection triggered by that allocation moves objects. Unrooted
//! refs are invalidated exactly as raw pointers are in a copying collector.
//!
//! ```
//! use deca_heap::{Heap, HeapConfig, ClassBuilder, FieldKind};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let point = heap
//!     .registry_mut()
//!     .define(ClassBuilder::new("Point").field("x", FieldKind::F64).field("y", FieldKind::F64));
//! let p = heap.alloc(point).unwrap();
//! heap.write_f64(p, 0, 1.5);
//! heap.write_f64(p, 1, 2.5);
//! assert_eq!(heap.read_f64(p, 0) + heap.read_f64(p, 1), 4.0);
//! ```

#![forbid(unsafe_code)]

mod census;
mod class;
mod concurrent;
mod gc;
mod heap;
mod mark;
mod object;
mod plan;
mod policy;
mod roots;
mod space;
mod stats;

pub use census::ClassStat;
pub use class::{ClassBuilder, ClassDescriptor, ClassId, ClassRegistry, FieldKind};
pub use heap::{Heap, HeapConfig, OomError};
pub use object::ObjRef;
pub use plan::{GcPlanKind, Plan};
pub use policy::GcAlgorithm;
pub use roots::RootId;
pub use stats::{GcEvent, GcEventKind, GcStats};
