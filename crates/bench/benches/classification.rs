//! Classification-analysis cost: the paper stresses that the local
//! analysis has "negligible computational overhead" and the global one is
//! run per submitted job by the hybrid optimizer (Appendix A). Both should
//! be microseconds at workload scale.

#![forbid(unsafe_code)]

use deca_check::{criterion_group, criterion_main, Criterion};
use deca_udt::fixtures::lr_program;
use deca_udt::{classify_local, GlobalAnalysis, TypeRef};

fn analysis_cost(c: &mut Criterion) {
    let f = lr_program();
    let lp = TypeRef::Udt(f.types.labeled_point);

    c.bench_function("local_classification_lr", |b| {
        b.iter(|| std::hint::black_box(classify_local(&f.types.registry, lp)));
    });

    c.bench_function("global_classification_lr", |b| {
        b.iter(|| {
            let ga = GlobalAnalysis::new(&f.types.registry, &f.program, f.stage_entry);
            std::hint::black_box(ga.classify(lp))
        });
    });
}

criterion_group!(benches, analysis_cost);
criterion_main!(benches);
