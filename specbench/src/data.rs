//! Benchmark inputs: the generated datasets, their snapshot files, the
//! workload query texts, and the in-process reference answers every wire
//! answer is checked against.

use kgstore::KnowledgeGraph;
use operators::PartialAnswer;
use relax::RelaxationRegistry;
use specqp::{Engine, EngineConfig};
use specqp_common::Dictionary;
use specqp_server::WireAnswer;
use specqp_service::ExecMode;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An answer list in comparable form: score bits plus the resolved
/// `(variable, term name)` bindings of every answer, in rank order.
pub type Answers = Vec<(u64, Vec<(u32, String)>)>;

pub fn canonical(answers: &[PartialAnswer], dict: &Dictionary) -> Answers {
    answers
        .iter()
        .map(|a| {
            let bindings = a
                .binding
                .iter()
                .map(|(var, term)| (var.0, dict.name_or_unknown(term).to_string()))
                .collect();
            (a.score.value().to_bits(), bindings)
        })
        .collect()
}

pub fn canonical_wire(answers: Vec<WireAnswer>) -> Answers {
    answers
        .into_iter()
        .map(|a| (a.score.to_bits(), a.bindings))
        .collect()
}

/// Precision of `spec`'s top-k against the true (TriniT) top-k, with the
/// conventions of `specqp::precision_at_k`: a smaller true result shrinks
/// the denominator, and an empty truth met by an empty result is 1.
pub fn precision_at_k(spec: &Answers, truth: &Answers, k: usize) -> f64 {
    if truth.is_empty() {
        return if spec.is_empty() { 1.0 } else { 0.0 };
    }
    let denom = k.min(truth.len()).max(1);
    let truth: HashSet<&Vec<(u32, String)>> = truth.iter().take(k).map(|(_, b)| b).collect();
    let hits = spec
        .iter()
        .take(k)
        .filter(|(_, b)| truth.contains(b))
        .count();
    hits as f64 / denom as f64
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    Xkg,
    Twitter,
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub dataset: Dataset,
    /// Binary snapshot of the generated graph; every set-up loads it.
    pub snapshot: PathBuf,
    pub registry: Arc<RelaxationRegistry>,
    /// The workload queries as the SPARQL-subset text clients send.
    pub texts: Vec<String>,
    pub triples: usize,
    pub rules: usize,
    /// Object constants of the workload's patterns (the tags of the
    /// Twitter queries) and the predicate they hang off.
    pub tags: Vec<String>,
    pub tag_predicate: String,
    /// Smallest triple score in the generated graph.
    pub min_score: f64,
}

/// Generates `dataset` at datagen's full-scale defaults and writes its
/// snapshot into `dir`.
pub fn generate(dataset: Dataset, dir: &Path) -> Inputs {
    let ds = match dataset {
        Dataset::Xkg => datagen::XkgGenerator::new(datagen::XkgConfig::default()).generate(),
        Dataset::Twitter => {
            datagen::TwitterGenerator::new(datagen::TwitterConfig::default()).generate()
        }
    };
    let dict = ds.graph.dictionary();
    let texts: Vec<String> = ds
        .workload
        .queries
        .iter()
        .map(|q| q.display(dict).to_string())
        .collect();
    let mut tags = Vec::new();
    let mut tag_predicate = String::new();
    for q in &ds.workload.queries {
        for p in q.patterns() {
            if let (None, Some(pred), Some(o)) = p.const_parts() {
                tag_predicate = dict.name_or_unknown(pred).to_string();
                let name = dict.name_or_unknown(o).to_string();
                if !tags.contains(&name) {
                    tags.push(name);
                }
            }
        }
    }
    let min_score = ds
        .graph
        .columns()
        .scores()
        .iter()
        .map(|s| s.value())
        .fold(f64::INFINITY, f64::min);
    std::fs::create_dir_all(dir).expect("create the benchmark's scratch directory");
    let snapshot = dir.join(format!("{}-{}.snap", ds.name, std::process::id()));
    ds.to_snapshot(&snapshot)
        .expect("write the dataset snapshot");
    Inputs {
        dataset,
        snapshot,
        registry: Arc::new(ds.registry.clone()),
        texts,
        triples: ds.graph.len(),
        rules: ds.registry.len(),
        tags,
        tag_predicate,
        min_score,
    }
}

pub fn load_graph(inputs: &Inputs) -> KnowledgeGraph {
    kgstore::snapshot::load_snapshot(&inputs.snapshot).expect("load the dataset snapshot")
}

/// One request of a workload: query index, k and mode.
pub type Op = (usize, usize, ExecMode);

/// How well PLANGEN predicted which patterns need relaxing (Table 3 of
/// the paper), per (query, k).
#[derive(Debug, Default)]
pub struct Predictions {
    pub exact: usize,
    pub covering: usize,
    pub total: usize,
}

/// A request as a map key: query index, k and mode index.
type Key = (usize, usize, usize);

/// Reference answers per request, from a static engine of the served
/// configuration.
pub struct References {
    answers: HashMap<Key, Answers>,
    pub predictions: Predictions,
}

impl References {
    pub fn get(&self, op: &Op) -> &Answers {
        self.answers
            .get(&(op.0, op.1, op.2.index()))
            .expect("reference for every request")
    }
}

/// Runs every `(query, k)` in both modes on a fresh static engine over
/// `graph`, on `threads` threads. With `predictions`, also scores the
/// Spec-QP plans against the relaxations the true top-k required.
pub fn references(
    graph: Arc<KnowledgeGraph>,
    inputs: &Inputs,
    config: EngineConfig,
    ks: &[usize],
    threads: usize,
    predictions: bool,
) -> References {
    let engine = Engine::shared_with_config(graph, Arc::clone(&inputs.registry), config);
    let queries: Vec<sparql::Query> = {
        let pinned = engine.graph();
        inputs
            .texts
            .iter()
            .map(|t| sparql::parse_query(t, pinned.dictionary()).expect("workload query parses"))
            .collect()
    };
    let pairs: Vec<(usize, usize)> = (0..queries.len())
        .flat_map(|qi| ks.iter().map(move |&k| (qi, k)))
        .collect();
    let chunk = pairs.len().div_ceil(threads.max(1));
    let results: Vec<(Vec<(Key, Answers)>, Predictions)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk.max(1))
            .map(|part| {
                let engine = &engine;
                let queries = &queries;
                scope.spawn(move || {
                    let pinned = engine.graph();
                    let dict = pinned.dictionary();
                    let mut out = Vec::new();
                    let mut pred = Predictions::default();
                    for &(qi, k) in part {
                        let q = &queries[qi];
                        let spec = engine.run_specqp(q, k);
                        let trinit = engine.run_trinit(q, k);
                        if predictions {
                            let required = specqp::required_relaxations(
                                &pinned,
                                q,
                                engine.registry(),
                                &trinit.answers,
                            );
                            pred.total += 1;
                            pred.exact +=
                                usize::from(specqp::prediction_exact(&spec.plan, &required));
                            pred.covering +=
                                usize::from(specqp::prediction_covering(&spec.plan, &required));
                        }
                        out.push((
                            (qi, k, ExecMode::SpecQp.index()),
                            canonical(&spec.answers, dict),
                        ));
                        out.push((
                            (qi, k, ExecMode::TriniT.index()),
                            canonical(&trinit.answers, dict),
                        ));
                    }
                    (out, pred)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut answers = HashMap::new();
    let mut predictions = Predictions::default();
    for (out, pred) in results {
        answers.extend(out);
        predictions.exact += pred.exact;
        predictions.covering += pred.covering;
        predictions.total += pred.total;
    }
    References {
        answers,
        predictions,
    }
}
