//! Epoch-stamped memo tables for the statistics layer.
//!
//! Everything the planner memoizes — pattern statistics, key-count maps,
//! join counts — describes one graph version. A live engine pins a version
//! per query, so two queries in flight may read different epochs while the
//! memo is shared. [`EpochMemo`] makes that safe: every table carries the
//! epoch its entries were computed from, lookups hit only for a graph of
//! that epoch, and an insert computed from an **older** version is
//! discarded. A query still pinned on epoch `n` may compute from it, but it
//! never publishes what it computed to planners of epoch `n + 1`.

use kgstore::{Epoch, KnowledgeGraph};
use specqp_common::FxHashMap;
use std::hash::Hash;
use std::sync::RwLock;

#[derive(Debug)]
struct Stamped<K, V> {
    epoch: Epoch,
    map: FxHashMap<K, V>,
}

/// A memo table whose entries all describe the graph version at one epoch.
#[derive(Debug)]
pub(crate) struct EpochMemo<K, V> {
    inner: RwLock<Stamped<K, V>>,
}

impl<K, V> Default for EpochMemo<K, V> {
    fn default() -> Self {
        EpochMemo {
            inner: RwLock::new(Stamped {
                epoch: Epoch::ZERO,
                map: FxHashMap::default(),
            }),
        }
    }
}

impl<K: Hash + Eq, V: Clone> EpochMemo<K, V> {
    /// The memoized value for `key`, when the memo holds `graph`'s epoch.
    pub(crate) fn get(&self, graph: &KnowledgeGraph, key: &K) -> Option<V> {
        let inner = self.inner.read().expect("memo poisoned");
        if inner.epoch != graph.epoch() {
            return None;
        }
        inner.map.get(key).cloned()
    }

    /// Memoizes `value`, computed from `graph`. A value from a newer epoch
    /// drops every entry and moves the memo to that epoch; a value from an
    /// older epoch is discarded.
    pub(crate) fn insert(&self, graph: &KnowledgeGraph, key: K, value: V) {
        let mut inner = self.inner.write().expect("memo poisoned");
        if graph.epoch() < inner.epoch {
            return;
        }
        if graph.epoch() > inner.epoch {
            inner.epoch = graph.epoch();
            inner.map.clear();
        }
        inner.map.insert(key, value);
    }

    /// Drops every entry and moves the memo to `epoch` (if it is newer):
    /// from now on values computed from older versions are refused.
    pub(crate) fn invalidate(&self, epoch: Epoch) {
        let mut inner = self.inner.write().expect("memo poisoned");
        inner.epoch = inner.epoch.max(epoch);
        inner.map.clear();
    }

    /// Number of memoized entries.
    pub(crate) fn len(&self) -> usize {
        self.inner.read().expect("memo poisoned").map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::{KnowledgeGraphBuilder, LiveGraph, WriteBatch};

    #[test]
    fn stale_inserts_are_refused_and_newer_ones_take_over() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "p", "b", 1.0);
        let live = LiveGraph::new(b.build());
        let (old, _) = live.pinned();
        let mut batch = WriteBatch::new();
        batch.assert("c", "p", "d", 1.0);
        live.commit(&batch);
        let (new, epoch) = live.pinned();

        let memo: EpochMemo<u32, u32> = EpochMemo::default();
        memo.insert(&old, 1, 10);
        assert_eq!(memo.get(&old, &1), Some(10));
        assert_eq!(
            memo.get(&new, &1),
            None,
            "epoch-0 entry invisible at epoch 1"
        );

        memo.invalidate(epoch);
        memo.insert(&old, 1, 10);
        assert_eq!(memo.len(), 0, "insert from an older pin refused");

        memo.insert(&new, 2, 20);
        assert_eq!(memo.get(&new, &2), Some(20));
        assert_eq!(memo.get(&old, &2), None);
    }

    #[test]
    fn newer_insert_drops_older_entries() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "p", "b", 1.0);
        let live = LiveGraph::new(b.build());
        let (old, _) = live.pinned();
        let memo: EpochMemo<u32, u32> = EpochMemo::default();
        memo.insert(&old, 1, 10);
        let mut batch = WriteBatch::new();
        batch.assert("c", "p", "d", 1.0);
        live.commit(&batch);
        let (new, _) = live.pinned();
        memo.insert(&new, 2, 20);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(&new, &1), None);
    }
}
