//! Microbench: set-up cost of a restarted replica on the full-scale XKG
//! graph (~351k triples, ~40k terms, a ~36 MB snapshot) — the streaming
//! `load_snapshot` of the whole file, and `Dictionary::from_names` over its
//! terms. The probe's `snapshot_v2` section uses a graph of a few thousand
//! terms, where dictionary cost does not show.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use datagen::{XkgConfig, XkgGenerator};
use kgstore::snapshot::{load_snapshot, save_snapshot};
use specqp_common::Dictionary;

fn bench_snapshot(c: &mut Criterion) {
    let graph = XkgGenerator::new(XkgConfig::default()).generate().graph;
    let path = std::env::temp_dir().join(format!("specqp_bench_xkg_{}.snap", std::process::id()));
    save_snapshot(&graph, &path).expect("write the XKG snapshot");
    let names: Vec<String> = graph
        .dictionary()
        .iter()
        .map(|(_, name)| name.to_string())
        .collect();

    let mut group = c.benchmark_group("snapshot");
    group.sample_size(10);
    group.bench_function("load_snapshot_xkg", |b| {
        b.iter(|| load_snapshot(black_box(&path)).expect("load").len())
    });
    group.bench_function(format!("dictionary_from_names_{}", names.len()), |b| {
        b.iter(|| {
            Dictionary::from_names(black_box(&names))
                .expect("distinct names")
                .len()
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
