//! Join-cardinality estimation.
//!
//! The estimator of §3.1.2 needs the expected number of answers `n` of a
//! query (and of each singly-relaxed query): `m₁₂ = m·m′·φ₁₂` with join
//! selectivity `φ`. The paper sidesteps selectivity estimation: "we have
//! taken exact join selectivity values" (footnote 3). [`ExactCardinality`]
//! is that oracle. It never materialises the join: each pattern's match
//! list is summarised once per epoch as a key-count map over the variables
//! the pattern shares with the rest of the query, and a count-only fold
//! multiplies those counts along the join (see [`ExactCardinality`]).
//! [`IndependenceEstimator`] is the classic System-R–style approximation
//! (`φ = 1/max(V(L,v), V(R,v))` per shared variable) provided for the
//! ablation benches.
//!
//! Every memo here is epoch-stamped: entries carry the
//! [`KnowledgeGraph::epoch`] they were computed from. A query pinned on an
//! older live-graph version can still count against it, but its results
//! are never memoized once a newer epoch has been observed.

use crate::key_counts::KeyCounts;
use crate::memo::EpochMemo;
use kgstore::{Epoch, KnowledgeGraph, PatternKey};
use sparql::{PatternShape, StatsKey, Term, TriplePattern, Var};
use specqp_common::{FxHashMap, FxHashSet, TermId};
use std::sync::Arc;

/// Estimates the number of answers of a conjunctive triple-pattern query.
///
/// Implementations must be shareable across query-service worker threads
/// (`Send + Sync`); the built-in estimators guard their memo tables with
/// `RwLock`s.
pub trait CardinalityEstimator: Send + Sync {
    /// Expected (or exact) answer count of the join of `patterns`.
    fn cardinality(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64;

    /// Drops any memoized counts because the graph has moved on to `epoch`.
    /// The engine calls this when it first observes a new live-write epoch,
    /// since counts memoized against an older version no longer describe
    /// the data. From then on, counts computed from versions older than
    /// `epoch` (by queries still pinned on them) must not be memoized.
    /// Stateless estimators can keep the default no-op.
    fn invalidate(&self, _epoch: Epoch) {}
}

/// One pattern's slot in a [`QueryKey`]: constant components plus the
/// canonical numbers of its variable positions (`u16::MAX` = constant; wide
/// enough that variable numbering can never collide with the sentinel).
type PatternKeySlot = (Option<TermId>, Option<TermId>, Option<TermId>, [u16; 3]);
/// Canonical identity of a pattern sequence for the cardinality cache.
type QueryKey = Vec<PatternKeySlot>;

/// Canonical cache key: constants plus variables renumbered in first-seen
/// order, so queries differing only in variable names share entries.
fn canonical_key(patterns: &[TriplePattern]) -> QueryKey {
    let mut var_map: FxHashMap<Var, u16> = FxHashMap::default();
    let mut key = Vec::with_capacity(patterns.len());
    for p in patterns {
        let mut slot = [u16::MAX; 3];
        for (i, t) in [p.s, p.p, p.o].into_iter().enumerate() {
            if let Term::Var(v) = t {
                let next = var_map.len();
                assert!(
                    next < usize::from(u16::MAX),
                    "pattern list exceeds {} distinct variables",
                    u16::MAX
                );
                slot[i] = *var_map.entry(v).or_insert(next as u16);
            }
        }
        let (s, pp, o) = p.const_parts();
        key.push((s, pp, o, slot));
    }
    key
}

/// Identity of a key-count map: the pattern's statistics key plus the
/// positions its key projects (bit 0 = subject, 1 = predicate, 2 = object).
type MapKey = (StatsKey, u8);

/// A pattern as the count-only fold sees it: its key-count map and the
/// variables the map's key columns hold.
struct Operand {
    vars: Vec<Var>,
    map: Arc<KeyCounts>,
}

/// Exact join-count oracle with memoization.
///
/// **Count-only join.** Each pattern's match list becomes a key-count map:
/// its matches (repeated-variable filter applied) projected onto the
/// variables it shares with the rest of the query, each distinct key with
/// its multiplicity. A variable that occurs in one pattern only is summed
/// away inside that pattern's map. The fold starts from the smallest map;
/// each step joins the next map (the smallest one sharing a variable with
/// what is joined so far, or the smallest remaining one for a cross
/// product) on the shared variables, multiplies counts, and projects onto
/// the variables later patterns still join on. It builds no bindings and
/// allocates nothing per row. The answer count is the sum of the last
/// step's multiplicities — exact and independent of the join order.
///
/// **Memo.** Key-count maps are memoized by (pattern [`StatsKey`],
/// projected positions), so the original query, each relaxed variant and
/// other queries of the same epoch share them. Final counts are memoized by
/// the query's canonical shape. Both tables are epoch-stamped (see
/// [`KnowledgeGraph::epoch`]): lookups hit only for a graph of the table's
/// epoch, and entries computed from an older version than the table's are
/// discarded. [`CardinalityEstimator::invalidate`] drops both.
///
/// **Cap.** [`ExactCardinality::DEFAULT_CAP`] (or
/// [`with_cap`](ExactCardinality::with_cap)) bounds planning-time memory:
/// no map, memoized or intermediate, holds more than `cap` distinct keys —
/// once full, new keys are dropped — and the returned count saturates at
/// `cap`. Dropping keys only loses matches, so a capped count is a lower
/// bound on the true one and never exceeds `cap`. The datasets in this
/// repository stay far below the default cap, where counts are exact.
#[derive(Debug)]
pub struct ExactCardinality {
    counts: EpochMemo<QueryKey, f64>,
    maps: EpochMemo<MapKey, Arc<KeyCounts>>,
    cap: usize,
}

impl Default for ExactCardinality {
    fn default() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }
}

impl ExactCardinality {
    /// Default cap on map sizes and on the returned count.
    pub const DEFAULT_CAP: usize = 20_000_000;

    /// New oracle with the default cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// New oracle with an explicit cap on map sizes and on the returned
    /// count.
    pub fn with_cap(cap: usize) -> Self {
        ExactCardinality {
            counts: EpochMemo::default(),
            maps: EpochMemo::default(),
            cap,
        }
    }

    /// Number of memoized query shapes.
    pub fn cached_queries(&self) -> usize {
        self.counts.len()
    }

    /// Number of memoized per-pattern key-count maps.
    pub fn cached_maps(&self) -> usize {
        self.maps.len()
    }

    /// `pattern`'s key-count map over the positions in `mask`, memoized.
    fn key_counts(
        &self,
        graph: &KnowledgeGraph,
        pattern: &TriplePattern,
        mask: u8,
    ) -> Arc<KeyCounts> {
        let key = (pattern.stats_key(), mask);
        if let Some(map) = self.maps.get(graph, &key) {
            return map;
        }
        let map = Arc::new(build_key_counts(graph, pattern, mask, self.cap));
        self.maps.insert(graph, key, Arc::clone(&map));
        map
    }

    /// Counts the join of `patterns` (uncached path).
    fn evaluate(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> u64 {
        if patterns.is_empty() {
            return 0;
        }
        let mut occurrences: FxHashMap<Var, u32> = FxHashMap::default();
        for p in patterns {
            for v in p.vars() {
                *occurrences.entry(v).or_default() += 1;
            }
        }
        let mut operands = Vec::with_capacity(patterns.len());
        for p in patterns {
            // Key columns: the first position of each shared variable.
            let (mut mask, mut vars) = (0u8, Vec::new());
            for (pos, term) in [p.s, p.p, p.o].into_iter().enumerate() {
                if let Term::Var(v) = term {
                    if occurrences[&v] > 1 && !vars.contains(&v) {
                        mask |= 1 << pos;
                        vars.push(v);
                    }
                }
            }
            let map = self.key_counts(graph, p, mask);
            if map.len() == 0 {
                return 0;
            }
            operands.push(Operand { vars, map });
        }

        let first = (0..operands.len())
            .min_by_key(|&i| operands[i].map.len())
            .expect("non-empty");
        let Operand {
            vars: mut state_vars,
            map: mut state,
        } = operands.swap_remove(first);
        while !operands.is_empty() {
            // Connected patterns first, smallest first: a cross product
            // only when nothing left shares a variable.
            let next = (0..operands.len())
                .min_by_key(|&i| {
                    let o = &operands[i];
                    let connected = o.vars.iter().any(|v| state_vars.contains(v));
                    (!connected, o.map.len())
                })
                .expect("non-empty");
            let op = operands.swap_remove(next);
            // Project onto the variables the remaining patterns join on.
            let out_vars: Vec<Var> = state_vars
                .iter()
                .chain(op.vars.iter().filter(|v| !state_vars.contains(v)))
                .filter(|v| operands.iter().any(|o| o.vars.contains(v)))
                .copied()
                .collect();
            let joined = join_step(&state, &state_vars, &op.map, &op.vars, &out_vars, self.cap);
            if joined.len() == 0 {
                return 0;
            }
            state = Arc::new(joined);
            state_vars = out_vars;
        }
        state.total().min(self.cap as u64)
    }
}

/// Builds `pattern`'s key-count map: its matches, repeated-variable filter
/// applied, projected onto the positions in `mask`.
fn build_key_counts(
    graph: &KnowledgeGraph,
    pattern: &TriplePattern,
    mask: u8,
    cap: usize,
) -> KeyCounts {
    let (s, p, o) = pattern.const_parts();
    let list = graph.matches(PatternKey { s, p, o });
    let shape = pattern.shape();
    let width = mask.count_ones() as usize;
    if width == 0 && shape == PatternShape::Distinct {
        let mut map = KeyCounts::new(0);
        if !list.is_empty() {
            map.add(&[], list.len() as u64, cap);
        }
        return map;
    }
    let mut map = KeyCounts::with_capacity(width, list.len());
    let mut key = [TermId(0); 3];
    for &id in list.ids() {
        let t = graph.triple(id);
        if !shape.admits(t.s, t.p, t.o) {
            continue;
        }
        let mut width = 0;
        for (pos, value) in [t.s, t.p, t.o].into_iter().enumerate() {
            if mask & (1 << pos) != 0 {
                key[width] = value;
                width += 1;
            }
        }
        map.add(&key[..width], 1, cap);
    }
    map
}

/// Where an output key column comes from in [`join_step`].
#[derive(Clone, Copy)]
enum Column {
    Left(usize),
    Right(usize),
}

/// Marks the end of a chain in [`join_step`]'s grouping of the left side.
const NONE: u32 = u32::MAX;

/// One step of the count-only fold: joins `left` (keys over `left_vars`)
/// with `right` (keys over `right_vars`) on their shared variables and
/// projects onto `out_vars`, multiplying the counts of matching keys.
///
/// When every right variable is already on the left, each left key probes
/// `right` directly. Otherwise the left entries are grouped by their shared
/// columns and each right key walks its group.
fn join_step(
    left: &KeyCounts,
    left_vars: &[Var],
    right: &KeyCounts,
    right_vars: &[Var],
    out_vars: &[Var],
    cap: usize,
) -> KeyCounts {
    let on_left = |v: &Var| left_vars.iter().position(|x| x == v);
    let columns: Vec<Column> = out_vars
        .iter()
        .map(|v| match on_left(v) {
            Some(i) => Column::Left(i),
            None => Column::Right(right_vars.iter().position(|x| x == v).expect("joined var")),
        })
        .collect();
    let mut out = KeyCounts::new(out_vars.len());
    let mut key = vec![TermId(0); out_vars.len()];
    let mut emit = |out: &mut KeyCounts, l: &[TermId], r: &[TermId], n: u64| {
        for (k, c) in key.iter_mut().zip(&columns) {
            *k = match *c {
                Column::Left(i) => l[i],
                Column::Right(i) => r[i],
            };
        }
        out.add(&key, n, cap);
    };

    // (left column, right column) of each shared variable.
    let shared: Vec<(usize, usize)> = right_vars
        .iter()
        .enumerate()
        .filter_map(|(r, v)| on_left(v).map(|l| (l, r)))
        .collect();
    let mut probe = vec![TermId(0); shared.len()];
    if shared.len() == right_vars.len() {
        // Each left key yields at most one output key; when the output
        // keeps the left columns as they are, those keys stay distinct (and
        // no more numerous than the left's, so within the cap).
        let distinct = out_vars == left_vars;
        for e in 0..left.len() {
            let lk = left.key(e);
            for (p, &(l, _)) in probe.iter_mut().zip(&shared) {
                *p = lk[l];
            }
            // `shared` follows the right key's column order.
            if let Some(m) = right.find(&probe) {
                let n = left.count(e).saturating_mul(right.count(m));
                if distinct {
                    out.push_distinct(lk, n);
                } else {
                    emit(&mut out, lk, right.key(m), n);
                }
            }
        }
    } else {
        // Chain the left entries of each shared-column group.
        let mut groups = KeyCounts::new(shared.len());
        let mut head: Vec<u32> = Vec::new();
        let mut next = vec![NONE; left.len()];
        for (e, link) in next.iter_mut().enumerate() {
            let lk = left.key(e);
            for (p, &(l, _)) in probe.iter_mut().zip(&shared) {
                *p = lk[l];
            }
            let g = groups.add(&probe, 1, usize::MAX).expect("uncapped");
            if g == head.len() {
                head.push(NONE);
            }
            *link = head[g];
            head[g] = e as u32;
        }
        for m in 0..right.len() {
            let rk = right.key(m);
            for (p, &(_, r)) in probe.iter_mut().zip(&shared) {
                *p = rk[r];
            }
            let Some(g) = groups.find(&probe) else {
                continue;
            };
            let mut e = head[g];
            while e != NONE {
                let n = left.count(e as usize).saturating_mul(right.count(m));
                emit(&mut out, left.key(e as usize), rk, n);
                e = next[e as usize];
            }
        }
    }
    out
}

impl CardinalityEstimator for ExactCardinality {
    fn cardinality(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64 {
        let key = canonical_key(patterns);
        if let Some(n) = self.counts.get(graph, &key) {
            return n;
        }
        let n = self.evaluate(graph, patterns) as f64;
        self.counts.insert(graph, key, n);
        n
    }

    fn invalidate(&self, epoch: Epoch) {
        self.counts.invalidate(epoch);
        self.maps.invalidate(epoch);
    }
}

/// Independence-assumption estimator: `n = Π mᵢ · Π φ`, with one selectivity
/// factor `φ = 1/max(V(prefix,v), V(qᵢ,v))` per newly shared variable
/// (`V(·,v)` = distinct values of `v`). Used by ablation benches.
#[derive(Default, Debug)]
pub struct IndependenceEstimator {
    distinct_cache: EpochMemo<(StatsKey, u8), f64>,
}

impl IndependenceEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct count of the values that `var` takes among `pattern`'s
    /// matches.
    fn distinct_values(&self, graph: &KnowledgeGraph, pattern: &TriplePattern, var: Var) -> f64 {
        // Which position(s) does var occupy? 0=s,1=p,2=o (first occurrence).
        let pos: u8 = if pattern.s.as_var() == Some(var) {
            0
        } else if pattern.p.as_var() == Some(var) {
            1
        } else {
            2
        };
        let key = (pattern.stats_key(), pos);
        if let Some(d) = self.distinct_cache.get(graph, &key) {
            return d;
        }
        let (s, p, o) = pattern.const_parts();
        let list = graph.matches(PatternKey { s, p, o });
        let mut seen: FxHashSet<TermId> = FxHashSet::default();
        for (t, _) in list.iter_triples() {
            let v = match pos {
                0 => t.s,
                1 => t.p,
                _ => t.o,
            };
            seen.insert(v);
        }
        let d = seen.len() as f64;
        self.distinct_cache.insert(graph, key, d);
        d
    }
}

impl CardinalityEstimator for IndependenceEstimator {
    fn cardinality(&self, graph: &KnowledgeGraph, patterns: &[TriplePattern]) -> f64 {
        if patterns.is_empty() {
            return 0.0;
        }
        let m = |p: &TriplePattern| {
            let (s, pp, o) = p.const_parts();
            graph.cardinality(PatternKey { s, p: pp, o }) as f64
        };
        let mut n = m(&patterns[0]);
        let mut seen_vars: Vec<(Var, f64)> = patterns[0]
            .vars()
            .map(|v| (v, self.distinct_values(graph, &patterns[0], v)))
            .collect();
        for p in &patterns[1..] {
            n *= m(p);
            for v in p.vars() {
                if let Some(&(_, d_prev)) = seen_vars.iter().find(|(sv, _)| *sv == v) {
                    let d_here = self.distinct_values(graph, p, v);
                    let denom = d_prev.max(d_here).max(1.0);
                    n /= denom;
                } else {
                    seen_vars.push((v, self.distinct_values(graph, p, v)));
                }
            }
        }
        n
    }

    fn invalidate(&self, epoch: Epoch) {
        self.distinct_cache.invalidate(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::KnowledgeGraphBuilder;

    fn graph() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        // Entities e0..e9 are singers; e0..e4 are lyricists; e0..e1 guitarists.
        for i in 0..10 {
            b.add(&format!("e{i}"), "type", "singer", 10.0 - i as f64);
        }
        for i in 0..5 {
            b.add(&format!("e{i}"), "type", "lyricist", 5.0 - i as f64);
        }
        for i in 0..2 {
            b.add(&format!("e{i}"), "type", "guitarist", 2.0 - i as f64);
        }
        b.build()
    }

    fn pat(g: &KnowledgeGraph, class: &str, var: u32) -> TriplePattern {
        let d = g.dictionary();
        TriplePattern::new(
            Var(var),
            d.lookup("type").unwrap(),
            d.lookup(class).unwrap(),
        )
    }

    #[test]
    fn exact_single_pattern_is_match_count() {
        let g = graph();
        let e = ExactCardinality::new();
        assert_eq!(e.cardinality(&g, &[pat(&g, "singer", 0)]), 10.0);
        assert_eq!(e.cardinality(&g, &[pat(&g, "guitarist", 0)]), 2.0);
    }

    #[test]
    fn exact_star_join_counts_intersection() {
        let g = graph();
        let e = ExactCardinality::new();
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 0)];
        assert_eq!(e.cardinality(&g, &q), 5.0);
        let q3 = [
            pat(&g, "singer", 0),
            pat(&g, "lyricist", 0),
            pat(&g, "guitarist", 0),
        ];
        assert_eq!(e.cardinality(&g, &q3), 2.0);
    }

    #[test]
    fn exact_disjoint_vars_cross_product() {
        let g = graph();
        let e = ExactCardinality::new();
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 1)];
        assert_eq!(e.cardinality(&g, &q), 50.0);
    }

    #[test]
    fn exact_caches_by_shape() {
        let g = graph();
        let e = ExactCardinality::new();
        let _ = e.cardinality(&g, &[pat(&g, "singer", 0), pat(&g, "lyricist", 0)]);
        assert_eq!(e.cached_queries(), 1);
        // Renamed variables hit the same entry.
        let _ = e.cardinality(&g, &[pat(&g, "singer", 3), pat(&g, "lyricist", 3)]);
        assert_eq!(e.cached_queries(), 1);
        // Different join structure gets its own entry.
        let _ = e.cardinality(&g, &[pat(&g, "singer", 0), pat(&g, "lyricist", 1)]);
        assert_eq!(e.cached_queries(), 2);
    }

    #[test]
    fn exact_empty_pattern_gives_zero() {
        let g = graph();
        let d = g.dictionary();
        let e = ExactCardinality::new();
        let ghost = TriplePattern::new(Var(0), d.lookup("type").unwrap(), d.lookup("e0").unwrap());
        assert_eq!(e.cardinality(&g, &[pat(&g, "singer", 0), ghost]), 0.0);
        assert_eq!(e.cardinality(&g, &[]), 0.0);
    }

    #[test]
    fn independence_estimator_reasonable() {
        let g = graph();
        let est = IndependenceEstimator::new();
        // singer ⋈ lyricist on ?0: m=10·5, distinct(?0)=10 vs 5 → /10 = 5.
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 0)];
        let n = est.cardinality(&g, &q);
        assert!((n - 5.0).abs() < 1e-9);
        // Cross product: no shared vars.
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 1)];
        assert!((est.cardinality(&g, &q) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cap_bounds_intermediate_blowup() {
        let g = graph();
        let e = ExactCardinality::with_cap(10);
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 1)];
        let n = e.cardinality(&g, &q);
        assert!(n <= 10.0);
    }

    /// The cap saturates the count: the 10 × 5 cross product counts as
    /// exactly `cap`, without any map holding more than one key.
    #[test]
    fn cap_saturates_the_count() {
        let g = graph();
        let q = [pat(&g, "singer", 0), pat(&g, "lyricist", 1)];
        assert_eq!(ExactCardinality::new().cardinality(&g, &q), 50.0);
        assert_eq!(ExactCardinality::with_cap(10).cardinality(&g, &q), 10.0);
        assert_eq!(ExactCardinality::with_cap(50).cardinality(&g, &q), 50.0);
    }

    /// The cap bounds map entries: keys past it are dropped, so the count
    /// of a join over capped maps is a lower bound (the true count is 5).
    #[test]
    fn cap_bounds_map_entries_and_keeps_a_lower_bound() {
        let g = graph();
        let e = ExactCardinality::with_cap(3);
        let singer = pat(&g, "singer", 0);
        let n = e.cardinality(&g, &[singer, pat(&g, "lyricist", 0)]);
        assert!(n <= 3.0, "count {n} above the cap");
        assert!(e.key_counts(&g, &singer, 0b001).len() <= 3);
    }

    /// Key-count maps are shared by every pattern list of an epoch that
    /// projects a pattern the same way, and `invalidate` drops them along
    /// with the memoized counts.
    #[test]
    fn maps_are_shared_across_pattern_lists_until_invalidated() {
        let g = graph();
        let e = ExactCardinality::new();
        let singer = pat(&g, "singer", 0);
        e.cardinality(&g, &[singer, pat(&g, "lyricist", 0)]);
        e.cardinality(&g, &[singer, pat(&g, "guitarist", 0)]);
        // Renamed and reordered: a new query shape, the same maps.
        e.cardinality(&g, &[pat(&g, "lyricist", 2), pat(&g, "singer", 2)]);
        assert_eq!(
            e.cached_maps(),
            3,
            "singer, lyricist, guitarist keyed on ?x"
        );
        assert_eq!(e.cached_queries(), 3);
        e.invalidate(Epoch::new(1));
        assert_eq!((e.cached_maps(), e.cached_queries()), (0, 0));
    }

    /// Patterns joined along a chain (not a star) group the joined-so-far
    /// side by the shared variable, and variables no later pattern needs
    /// are summed away along the way.
    #[test]
    fn chain_join_counts_paths() {
        let mut b = KnowledgeGraphBuilder::new();
        // a → {b, c}, b → {d}, c → {d, e}, d → {f}
        for (s, o) in [
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
            ("c", "e"),
            ("d", "f"),
        ] {
            b.add(s, "next", o, 1.0);
        }
        let g = b.build();
        let next = g.dictionary().lookup("next").unwrap();
        let hop = |from: u32, to: u32| TriplePattern::new(Var(from), next, Var(to));
        let e = ExactCardinality::new();
        // Two-hop paths: a-b-d, a-c-d, a-c-e, b-d-f, c-d-f.
        assert_eq!(e.cardinality(&g, &[hop(0, 1), hop(1, 2)]), 5.0);
        // Three-hop paths: a-b-d-f, a-c-d-f.
        assert_eq!(e.cardinality(&g, &[hop(0, 1), hop(1, 2), hop(2, 3)]), 2.0);
        // Listed out of chain order: same count.
        assert_eq!(e.cardinality(&g, &[hop(2, 3), hop(0, 1), hop(1, 2)]), 2.0);
    }

    #[test]
    fn repeated_var_pattern_filters() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "knows", "a", 1.0);
        b.add("a", "knows", "b", 2.0);
        let g = b.build();
        let knows = g.dictionary().lookup("knows").unwrap();
        let e = ExactCardinality::new();
        let p = TriplePattern::new(Var(0), knows, Var(0));
        assert_eq!(e.cardinality(&g, &[p]), 1.0);
    }
}
