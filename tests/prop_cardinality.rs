//! Property tests of the exact cardinality oracle: on random small graphs,
//! `ExactCardinality` must equal a brute-force nested-loop count of the
//! join — constants in every position, repeated variables within and
//! across patterns, disconnected patterns (cross products), empty pattern
//! lists and 1–4 patterns — and a capped oracle must stay a lower bound
//! that never exceeds its cap.

use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder, LiveGraph, PatternKey, Triple, WriteBatch};
use proptest::prelude::*;
use sparql::{Term, TriplePattern, Var};
use specqp_stats::{CardinalityEstimator, ExactCardinality};

/// Size of the term universe: every term can be a subject, predicate and
/// object, so repeated-variable patterns (`?x ?x ?y`, …) find matches.
const TERMS: u8 = 5;
/// Variables drawn per position; few, so they repeat and join often.
const VARS: u8 = 4;

fn name(t: u8) -> String {
    format!("t{t}")
}

/// A graph over the [`TERMS`] universe; every term is interned, so
/// constants absent from the triples are still valid pattern terms.
fn graph(triples: &[(u8, u8, u8)]) -> KnowledgeGraph {
    let mut b = KnowledgeGraphBuilder::new();
    for t in 0..TERMS {
        b.intern(&name(t));
    }
    for (i, &(s, p, o)) in triples.iter().enumerate() {
        b.add(&name(s), &name(p), &name(o), 1.0 + i as f64);
    }
    b.build()
}

/// Position code: `< VARS` is a variable, otherwise a constant term.
fn term(g: &KnowledgeGraph, code: u8) -> Term {
    if code < VARS {
        Term::Var(Var(u32::from(code)))
    } else {
        Term::Const(g.dictionary().lookup(&name(code - VARS)).unwrap())
    }
}

fn patterns(g: &KnowledgeGraph, codes: &[(u8, u8, u8)]) -> Vec<TriplePattern> {
    codes
        .iter()
        .map(|&(s, p, o)| TriplePattern {
            s: term(g, s),
            p: term(g, p),
            o: term(g, o),
        })
        .collect()
}

/// Every visible triple of `g`.
fn all_triples(g: &KnowledgeGraph) -> Vec<Triple> {
    g.matches(PatternKey {
        s: None,
        p: None,
        o: None,
    })
    .iter_triples()
    .map(|(t, _)| t)
    .collect()
}

/// Nested-loop join count: every pattern ranges over every triple, and a
/// combination counts when constants match and each variable takes one
/// value throughout.
fn brute_force(triples: &[Triple], patterns: &[TriplePattern]) -> u64 {
    fn extend(
        triples: &[Triple],
        patterns: &[TriplePattern],
        binding: &mut [Option<specqp_common::TermId>; VARS as usize],
    ) -> u64 {
        let Some((p, rest)) = patterns.split_first() else {
            return 1;
        };
        let mut n = 0;
        for t in triples {
            let saved = *binding;
            let ok =
                [(p.s, t.s), (p.p, t.p), (p.o, t.o)]
                    .into_iter()
                    .all(|(term, value)| match term {
                        Term::Const(c) => c == value,
                        Term::Var(v) => {
                            let slot = &mut binding[v.0 as usize];
                            *slot.get_or_insert(value) == value
                        }
                    });
            if ok {
                n += extend(triples, rest, binding);
            }
            *binding = saved;
        }
        n
    }
    if patterns.is_empty() {
        return 0;
    }
    extend(triples, patterns, &mut [None; VARS as usize])
}

fn triples() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0..TERMS, 0..TERMS, 0..TERMS), 0..20)
}

fn pattern_codes() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    let code = 0..VARS + TERMS;
    prop::collection::vec((code.clone(), code.clone(), code), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The count-only join equals the nested-loop count, and a second
    /// (memoized) call returns the same value.
    #[test]
    fn exact_matches_nested_loop_count(data in triples(), codes in pattern_codes()) {
        let g = graph(&data);
        let ps = patterns(&g, &codes);
        let truth = brute_force(&all_triples(&g), &ps);
        let oracle = ExactCardinality::new();
        prop_assert_eq!(oracle.cardinality(&g, &ps), truth as f64, "patterns {:?}", ps);
        prop_assert_eq!(oracle.cardinality(&g, &ps), truth as f64);
    }

    /// The same on a live version: base rows, overlay rows and retraction
    /// masks all go through the match lists the maps are built from.
    #[test]
    fn exact_matches_nested_loop_count_on_live_versions(
        data in triples(),
        asserted in triples(),
        retracted in triples(),
        codes in pattern_codes(),
    ) {
        let live = LiveGraph::new(graph(&data));
        let mut batch = WriteBatch::new();
        for &(s, p, o) in &asserted {
            batch.assert(&name(s), &name(p), &name(o), 0.5);
        }
        for &(s, p, o) in &retracted {
            batch.retract(&name(s), &name(p), &name(o));
        }
        live.commit(&batch);
        let (g, _) = live.pinned();
        let ps = patterns(&g, &codes);
        let truth = brute_force(&all_triples(&g), &ps);
        prop_assert_eq!(ExactCardinality::new().cardinality(&g, &ps), truth as f64);
    }

    /// A capped count is a lower bound on the true count and never exceeds
    /// the cap; a cap no map can reach loses nothing below it.
    #[test]
    fn capped_count_is_a_bounded_lower_bound(
        data in triples(),
        codes in pattern_codes(),
        cap in 0usize..30,
    ) {
        let g = graph(&data);
        let ps = patterns(&g, &codes);
        let truth = brute_force(&all_triples(&g), &ps) as f64;
        let n = ExactCardinality::with_cap(cap).cardinality(&g, &ps);
        prop_assert!(n <= truth && n <= cap as f64, "capped {} vs truth {} cap {}", n, truth, cap);
        // Keys hold at most VARS columns over TERMS terms.
        let unreachable = usize::from(TERMS).pow(u32::from(VARS));
        let n = ExactCardinality::with_cap(unreachable).cardinality(&g, &ps);
        prop_assert_eq!(n, truth.min(unreachable as f64));
    }
}
