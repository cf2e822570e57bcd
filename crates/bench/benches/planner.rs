//! Microbench: PLANGEN end-to-end planning latency per query (warm
//! statistics), cold planning of whole workloads (fresh statistics and
//! cardinality memos, as after every live-write epoch), and the
//! exact-oracle vs independence-estimator cardinality ablation. This is the
//! "additional time spent on speculative planning" visible in Figures 7/9
//! when every pattern ends up relaxed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use relax::RelaxationRegistry;
use specqp::plan_query;
use specqp_stats::{
    CardinalityEstimator, ExactCardinality, IndependenceEstimator, RefitMode, StatsCatalog,
};

fn bench_planner(c: &mut Criterion) {
    let ds = XkgGenerator::new(XkgConfig::small(0x91a)).generate();
    let catalog = StatsCatalog::new();
    let exact = ExactCardinality::new();
    let indep = IndependenceEstimator::new();
    let registry: &RelaxationRegistry = &ds.registry;

    // Warm both cardinality backends and the catalog.
    for q in &ds.workload.queries {
        let _ = plan_query(
            &ds.graph,
            q,
            10,
            &catalog,
            &exact,
            registry,
            RefitMode::TwoBucket,
        );
        let _ = plan_query(
            &ds.graph,
            q,
            10,
            &catalog,
            &indep,
            registry,
            RefitMode::TwoBucket,
        );
    }

    let mut group = c.benchmark_group("plangen");
    for (qid, q) in ds.workload.queries.iter().enumerate().take(6) {
        group.bench_with_input(
            BenchmarkId::new(format!("exact_tp{}", q.len()), qid),
            q,
            |b, q| {
                b.iter(|| {
                    plan_query(
                        &ds.graph,
                        q,
                        10,
                        &catalog,
                        &exact,
                        registry,
                        RefitMode::TwoBucket,
                    )
                    .relaxed_count()
                })
            },
        );
    }
    group.finish();

    // Cold planning: every iteration plans the whole workload (k = 10) on a
    // fresh catalog and oracle, so pattern statistics, key-count maps and
    // join counts are all recomputed — the cost a live engine pays after
    // each commit. Maps are shared across the queries of one iteration,
    // as they are within one epoch.
    let twitter = TwitterGenerator::new(TwitterConfig::small(0x91a)).generate();
    let mut group = c.benchmark_group("plangen_cold");
    for (name, data) in [("xkg_small", &ds), ("twitter_small", &twitter)] {
        group.bench_function(format!("{name}_workload"), |b| {
            b.iter(|| {
                let catalog = StatsCatalog::new();
                let exact = ExactCardinality::new();
                data.workload
                    .queries
                    .iter()
                    .map(|q| {
                        plan_query(
                            &data.graph,
                            q,
                            10,
                            &catalog,
                            &exact,
                            &data.registry,
                            RefitMode::TwoBucket,
                        )
                        .relaxed_count()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();

    // Cardinality backend ablation on a fixed query (cold-cache costs).
    let q = &ds.workload.queries[1];
    let mut group = c.benchmark_group("cardinality_backend");
    group.bench_function("exact_warm", |b| {
        b.iter(|| exact.cardinality(&ds.graph, q.patterns()))
    });
    group.bench_function("independence_warm", |b| {
        b.iter(|| indep.cardinality(&ds.graph, q.patterns()))
    });
    group.bench_function("exact_cold", |b| {
        b.iter(|| {
            let fresh = ExactCardinality::new();
            fresh.cardinality(&ds.graph, q.patterns())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
