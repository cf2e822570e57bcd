//! Differential harness locking in the speculation lifecycle's safety net:
//! with fallback **forced to the final stage**
//! ([`SpeculationPolicy::ForceFinal`]), `run_specqp` must return exactly
//! what `run_trinit` returns — same answers, same order, same scores
//! (bitwise, not approx) — across XKG and Twitter, both executors, block
//! sizes {1, 64, 4096}.
//!
//! This is the recovery path's end-to-end proof: the forced verdict drives
//! the plan → execute → verify → escalate → re-execute machinery on every
//! query, and the re-executed all-relaxed stage must be indistinguishable
//! from the TriniT baseline it claims to guarantee. A second property pins
//! the budgeted policy: `Fallback { max_stages: 1 }` either verifies clean
//! (answers stand) or takes its one permitted stage straight to the safety
//! net (answers are TriniT's).
//!
//! Queries are assembled from the generators' own workload patterns, the
//! same construction as tests/diff_exec.rs.

use datagen::{Dataset, TwitterConfig, TwitterGenerator, XkgConfig, XkgGenerator};
use operators::ExecutionMode;
use proptest::prelude::*;
use sparql::{Query, QueryBuilder, Term};
use specqp::{Engine, EngineConfig, QueryPlan, SpeculationPolicy};
use specqp_common::TermId;
use std::sync::OnceLock;

const BLOCK_SIZES: [usize; 3] = [1, 64, 4096];

/// One reusable star-query building block, extracted from a workload query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PoolPattern {
    /// `?x <p> <o>` — a fully qualified (type-like) pattern.
    Bound { p: TermId, o: TermId },
    /// `?x <p> ?y` — a relational pattern with a fresh object variable.
    Open { p: TermId },
}

struct World {
    ds: Dataset,
    pool: Vec<PoolPattern>,
}

fn build_world(ds: Dataset) -> World {
    let mut pool: Vec<PoolPattern> = Vec::new();
    for q in &ds.workload.queries {
        for pat in q.patterns() {
            let entry = match (pat.p, pat.o) {
                (Term::Const(p), Term::Const(o)) => PoolPattern::Bound { p, o },
                (Term::Const(p), Term::Var(_)) => PoolPattern::Open { p },
                _ => continue,
            };
            if !pool.contains(&entry) {
                pool.push(entry);
            }
        }
    }
    assert!(pool.len() >= 8, "workload must yield a varied pattern pool");
    World { ds, pool }
}

fn xkg() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| build_world(XkgGenerator::new(XkgConfig::small(0x5eed001)).generate()))
}

fn twitter() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        build_world(TwitterGenerator::new(TwitterConfig::small(0x71177e4)).generate())
    })
}

/// Builds a star query over `?x` from pool picks (duplicates dropped).
fn build_query(world: &World, picks: &[u16]) -> Option<Query> {
    let mut chosen: Vec<PoolPattern> = Vec::new();
    for &pick in picks {
        let entry = world.pool[pick as usize % world.pool.len()];
        if !chosen.contains(&entry) {
            chosen.push(entry);
        }
    }
    if chosen.is_empty() {
        return None;
    }
    let mut qb = QueryBuilder::new();
    let x = qb.var("x");
    for (i, entry) in chosen.iter().enumerate() {
        match *entry {
            PoolPattern::Bound { p, o } => {
                qb.pattern(x, p, o);
            }
            PoolPattern::Open { p } => {
                let y = qb.var(&format!("y{i}"));
                qb.pattern(x, p, y);
            }
        }
    }
    qb.project(x);
    qb.build().ok()
}

/// Runs the forced-final and budgeted-fallback properties for one query
/// under one executor configuration.
fn check_one(
    world: &World,
    q: &Query,
    k: usize,
    execution: ExecutionMode,
) -> Result<(), TestCaseError> {
    let engine = |policy: SpeculationPolicy| {
        Engine::with_config(
            &world.ds.graph,
            &world.ds.registry,
            EngineConfig::default()
                .with_execution(execution)
                .with_speculation(policy),
        )
    };

    // Property 1: forced-final fallback ≡ TriniT, byte for byte.
    let forced_engine = engine(SpeculationPolicy::ForceFinal);
    let trinit = forced_engine.run_trinit(q, k);
    let forced = forced_engine.run_specqp(q, k);
    prop_assert_eq!(
        &forced.answers,
        &trinit.answers,
        "forced final ≠ trinit ({:?}, k {})",
        execution,
        k
    );
    prop_assert_eq!(&forced.plan, &QueryPlan::all_relaxed(q.len()));
    prop_assert_eq!(forced.report.fallback_stages, 1, "exactly one forced stage");

    // Property 2: a one-stage budget either verifies clean or lands on the
    // safety net — mis-speculated runs must return TriniT's answers.
    let budgeted = engine(SpeculationPolicy::Fallback { max_stages: 1 });
    let out = budgeted.run_specqp(q, k);
    if out.report.fallback_stages > 0 {
        prop_assert_eq!(
            &out.answers,
            &trinit.answers,
            "one-stage fallback must recover to trinit ({:?}, k {})",
            execution,
            k
        );
        prop_assert!(out.report.mis_speculated);
        prop_assert!(out.report.wasted_answers > 0 || out.report.answers_created == 0);
    }
    Ok(())
}

fn check_differential(world: &World, picks: &[u16], k: usize) -> Result<(), TestCaseError> {
    let Some(q) = build_query(world, picks) else {
        return Ok(());
    };
    check_one(world, &q, k, ExecutionMode::RowAtATime)?;
    for size in BLOCK_SIZES {
        check_one(world, &q, k, ExecutionMode::Block(size))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn xkg_forced_final_fallback_equals_trinit(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_differential(xkg(), &picks, k)?;
    }

    #[test]
    fn twitter_forced_final_fallback_equals_trinit(
        picks in proptest::collection::vec(any::<u16>(), 1..=4),
        k in 1usize..=25,
    ) {
        check_differential(twitter(), &picks, k)?;
    }
}

/// The exact benchmark workloads (not random subsets) must also recover to
/// TriniT under the forced final stage, on both executors.
#[test]
fn workload_queries_forced_final_equals_trinit() {
    for world in [xkg(), twitter()] {
        for execution in [
            ExecutionMode::RowAtATime,
            ExecutionMode::Block(operators::DEFAULT_BLOCK_SIZE),
        ] {
            let engine = Engine::with_config(
                &world.ds.graph,
                &world.ds.registry,
                EngineConfig::default()
                    .with_execution(execution)
                    .with_speculation(SpeculationPolicy::ForceFinal),
            );
            for q in &world.ds.workload.queries {
                let forced = engine.run_specqp(q, 10);
                let trinit = engine.run_trinit(q, 10);
                assert_eq!(forced.answers, trinit.answers);
                assert_eq!(forced.report.fallback_stages, 1);
            }
        }
    }
}
