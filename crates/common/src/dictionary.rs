//! String ⇄ id interning.

use crate::TermId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Marks a free slot in a [`Dictionary`]'s id table.
const EMPTY: u32 = u32::MAX;

/// A bidirectional dictionary mapping term strings (IRIs, literals, textual
/// tokens) to dense [`TermId`]s.
///
/// Ids are assigned in first-seen order starting at 0, so they can directly
/// index side arrays.
///
/// # Storage
///
/// Names live back to back in one string arena with a column of end
/// offsets, so id → name is two array reads and a dictionary holds three
/// allocations however many terms it has. Name → id goes through an
/// open-addressing table of ids (linear probing, load factor at most 3/4)
/// that [`Dictionary::from_names`] and [`Dictionary::from_arena`] size up
/// front. Names arrive from outside the program (snapshot files, WRITE
/// frames), so the table hashes them with std's keyed [`RandomState`], not
/// with the engine's unkeyed FxHash.
///
/// # Layering
///
/// A dictionary can be **layered on an immutable base**
/// ([`Dictionary::layered`]): the base's assignments are shared through an
/// `Arc` and only terms interned *after* the fork live in the local layer.
/// Ids are globally consistent — the local layer starts at `base.len()` —
/// so a term keeps its id across every version forked from the same base.
/// This is what makes cloning a live graph's dictionary per commit O(new
/// terms) instead of O(all terms).
#[derive(Default, Debug, Clone)]
pub struct Dictionary {
    /// Frozen lower layer; `None` for a flat (unlayered) dictionary.
    base: Option<Arc<Dictionary>>,
    /// Local terms' bytes, back to back.
    arena: String,
    /// `ends[i]` is where local term `i` ends in `arena`; it starts where
    /// term `i - 1` ends (term 0 at 0).
    ends: Vec<usize>,
    /// Open-addressing table of local term indexes, `EMPTY` when free. Its
    /// length is zero or a power of two.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary layered on `base`: every term of `base` resolves
    /// with its existing id, and newly interned terms get ids starting at
    /// `base.len()`.
    ///
    /// ```
    /// # use specqp_common::Dictionary;
    /// # use std::sync::Arc;
    /// let mut seed = Dictionary::new();
    /// let singer = seed.intern("singer");
    /// let mut live = Dictionary::layered(Arc::new(seed));
    /// assert_eq!(live.lookup("singer"), Some(singer));
    /// let fresh = live.intern("guitarist");
    /// assert_eq!(fresh.index(), 1);
    /// ```
    pub fn layered(base: Arc<Dictionary>) -> Self {
        Dictionary {
            base: Some(base),
            ..Self::default()
        }
    }

    /// `true` when this dictionary sits on a shared base layer.
    pub fn is_layered(&self) -> bool {
        self.base.is_some()
    }

    /// Number of terms in the frozen base layer (0 when unlayered).
    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len())
    }

    /// Local term `i`'s name.
    fn local(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }

    /// Probes the id table for `name`: `Ok(local index)` when present,
    /// `Err(free slot)` where it would go. The table must be non-empty.
    fn find(&self, name: &str) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                e if self.local(e as usize) == name => return Ok(e as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the id table with room for `n` local terms at load factor
    /// 3/4, re-inserting every local term.
    fn index_for(&mut self, n: usize) {
        let size = (n + n / 3 + 1).next_power_of_two().max(4);
        self.slots = vec![EMPTY; size];
        for i in 0..self.ends.len() {
            let slot = self
                .find(self.local(i))
                .expect_err("local names are distinct");
            self.slots[slot] = i as u32;
        }
    }

    /// Appends `name` as a new local term whose free slot is `slot`.
    fn push(&mut self, name: &str, slot: usize) -> TermId {
        let i = self.ends.len();
        assert!(i < EMPTY as usize, "dictionary outgrew u32 term indexes");
        let id = TermId::from_index(self.base_len() + i);
        self.arena.push_str(name);
        self.ends.push(self.arena.len());
        self.slots[slot] = i as u32;
        if 4 * self.ends.len() > 3 * self.slots.len() {
            self.index_for(2 * self.ends.len());
        }
        id
    }

    /// Interns `name`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, name: &str) -> TermId {
        if let Some(id) = self.base.as_ref().and_then(|b| b.lookup(name)) {
            return id;
        }
        if self.slots.is_empty() {
            self.index_for(0);
        }
        match self.find(name) {
            Ok(i) => TermId::from_index(self.base_len() + i),
            Err(slot) => self.push(name, slot),
        }
    }

    /// Rebuilds a dictionary from the id-ordered term list: `names[i]`
    /// becomes the term with id `i`. Fails on duplicate names, which would
    /// make the name → id direction ambiguous.
    pub fn from_names<I>(names: I) -> crate::Result<Self>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let names = names.into_iter();
        let mut arena = String::new();
        let mut ends = Vec::with_capacity(names.size_hint().0);
        for name in names {
            arena.push_str(name.as_ref());
            ends.push(arena.len());
        }
        Self::from_arena(arena, ends)
    }

    /// Builds a flat dictionary straight from its storage: term `i` is
    /// `arena[ends[i - 1]..ends[i]]` (term 0 starts at 0). This is the
    /// snapshot reader's path — it decodes names into one arena and hands
    /// it over without per-term allocation. Fails when `ends` is not a
    /// non-decreasing run of char boundaries inside `arena`, when bytes
    /// follow the last term, or on a duplicate name.
    pub fn from_arena(arena: String, ends: Vec<usize>) -> crate::Result<Self> {
        if ends.len() >= EMPTY as usize {
            return Err(crate::Error::InvalidConfig(format!(
                "{} dictionary terms exceed the id space",
                ends.len()
            )));
        }
        let mut start = 0;
        for &end in &ends {
            if end < start || !arena.is_char_boundary(end) {
                return Err(crate::Error::InvalidConfig(format!(
                    "dictionary term ends at {end}, outside the arena or before its start {start}"
                )));
            }
            start = end;
        }
        if start != arena.len() {
            return Err(crate::Error::InvalidConfig(format!(
                "dictionary arena holds {} bytes past its last term",
                arena.len() - start
            )));
        }
        let mut d = Dictionary {
            arena,
            ..Self::default()
        };
        d.ends.reserve_exact(ends.len());
        d.index_for(ends.len());
        for end in ends {
            d.ends.push(end);
            let i = d.ends.len() - 1;
            match d.find(d.local(i)) {
                Ok(_) => {
                    return Err(crate::Error::InvalidConfig(format!(
                        "duplicate dictionary term {:?}",
                        d.local(i)
                    )))
                }
                Err(slot) => d.slots[slot] = i as u32,
            }
        }
        Ok(d)
    }

    /// Looks up an existing term without interning.
    pub fn lookup(&self, name: &str) -> Option<TermId> {
        if let Some(id) = self.base.as_ref().and_then(|b| b.lookup(name)) {
            return Some(id);
        }
        if self.slots.is_empty() {
            return None;
        }
        let i = self.find(name).ok()?;
        Some(TermId::from_index(self.base_len() + i))
    }

    /// Returns the string for `id`, if assigned.
    pub fn name(&self, id: TermId) -> Option<&str> {
        let base_len = self.base_len();
        if id.index() < base_len {
            // `base_len > 0` implies `base` is `Some`.
            return self.base.as_ref().and_then(|b| b.name(id));
        }
        let i = id.index() - base_len;
        (i < self.ends.len()).then(|| self.local(i))
    }

    /// Returns the string for `id`, or a placeholder for unknown ids.
    /// Convenient for diagnostics.
    pub fn name_or_unknown(&self, id: TermId) -> &str {
        self.name(id).unwrap_or("<?unknown?>")
    }

    /// Number of interned terms (base layer included).
    pub fn len(&self) -> usize {
        self.base_len() + self.ends.len()
    }

    /// `true` if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(id, name)` pairs in id order, base layer first.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        let base: Box<dyn Iterator<Item = &str> + '_> = match &self.base {
            Some(b) => Box::new(b.iter().map(|(_, n)| n)),
            None => Box::new(std::iter::empty()),
        };
        base.chain((0..self.ends.len()).map(|i| self.local(i)))
            .enumerate()
            .map(|(i, s)| (TermId::from_index(i), s))
    }

    /// Flattens the layering into a single self-contained dictionary with
    /// identical id assignments. Used by compaction, where the folded base
    /// should no longer pin the pre-fork dictionary alive.
    pub fn flattened(&self) -> Dictionary {
        if self.base.is_none() {
            return self.clone();
        }
        let mut arena = String::new();
        let mut ends = Vec::with_capacity(self.len());
        for (_, name) in self.iter() {
            arena.push_str(name);
            ends.push(arena.len());
        }
        Self::from_arena(arena, ends).expect("a dictionary's names are distinct")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("singer");
        let b = d.intern("singer");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), TermId(0));
        assert_eq!(d.intern("b"), TermId(1));
        assert_eq!(d.intern("a"), TermId(0));
        assert_eq!(d.intern("c"), TermId(2));
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let mut d = Dictionary::new();
        let id = d.intern("vocalist");
        assert_eq!(d.lookup("vocalist"), Some(id));
        assert_eq!(d.lookup("missing"), None);
        assert_eq!(d.name(id), Some("vocalist"));
        assert_eq!(d.name(TermId(99)), None);
        assert_eq!(d.name_or_unknown(TermId(99)), "<?unknown?>");
    }

    #[test]
    fn from_names_roundtrips_iter() {
        let mut d = Dictionary::new();
        d.intern("a");
        d.intern("b");
        d.intern("c");
        let names: Vec<String> = d.iter().map(|(_, n)| n.to_string()).collect();
        let d2 = Dictionary::from_names(names).unwrap();
        assert_eq!(d2.len(), 3);
        assert_eq!(d2.lookup("b"), Some(TermId(1)));
    }

    #[test]
    fn from_names_rejects_duplicates() {
        let e = Dictionary::from_names(vec!["x".to_string(), "x".to_string()]).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
    }

    #[test]
    fn iter_yields_all() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let v: Vec<_> = d.iter().map(|(i, n)| (i.0, n.to_string())).collect();
        assert_eq!(v, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn layered_dictionary_shares_base_ids() {
        let mut seed = Dictionary::new();
        let a = seed.intern("a");
        let b = seed.intern("b");
        let mut live = Dictionary::layered(std::sync::Arc::new(seed));
        assert_eq!(live.len(), 2);
        assert_eq!(live.lookup("a"), Some(a));
        assert_eq!(live.intern("b"), b, "base term must not re-intern");
        let c = live.intern("c");
        assert_eq!(c, TermId(2), "local layer starts at base.len()");
        assert_eq!(live.name(a), Some("a"));
        assert_eq!(live.name(c), Some("c"));
        assert_eq!(live.len(), 3);
        let v: Vec<_> = live.iter().map(|(i, n)| (i.0, n.to_string())).collect();
        assert_eq!(
            v,
            vec![(0, "a".into()), (1, "b".into()), (2, "c".to_string())]
        );
    }

    #[test]
    fn flattened_preserves_ids_and_drops_layering() {
        let mut seed = Dictionary::new();
        seed.intern("a");
        let mut live = Dictionary::layered(std::sync::Arc::new(seed));
        live.intern("z");
        let flat = live.flattened();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.lookup("a"), live.lookup("a"));
        assert_eq!(flat.lookup("z"), live.lookup("z"));
        // A flat dictionary round-trips through from_names (layered ones do
        // too, via iter, which is what the snapshot writer uses).
        let names: Vec<String> = flat.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(Dictionary::from_names(names).unwrap().len(), 2);
    }

    #[test]
    fn from_names_at_scale_resolves_every_id_and_survives_layering() {
        const N: usize = 100_000;
        let names: Vec<String> = (0..N).map(|i| format!("ent{i}")).collect();
        let d = Dictionary::from_names(&names).unwrap();
        assert_eq!(d.len(), N);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(d.lookup(name), Some(TermId::from_index(i)), "{name}");
            assert_eq!(d.name(TermId::from_index(i)), Some(name.as_str()));
        }
        assert_eq!(d.lookup("ent100000"), None);

        let mut dup = names.clone();
        dup.push("ent0".to_string());
        let e = Dictionary::from_names(&dup).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");

        let mut live = Dictionary::layered(Arc::new(d));
        for i in N..N + 1_000 {
            assert_eq!(live.intern(&format!("ent{i}")), TermId::from_index(i));
        }
        let flat = live.flattened();
        assert!(!flat.is_layered());
        assert_eq!(flat.len(), N + 1_000);
        for (id, name) in live.iter() {
            assert_eq!(flat.lookup(name), Some(id), "{name}");
            assert_eq!(flat.name(id), Some(name));
        }
    }

    #[test]
    fn from_arena_rejects_bad_offsets() {
        let ok = Dictionary::from_arena("abcd".to_string(), vec![1, 4]).unwrap();
        assert_eq!(ok.lookup("bcd"), Some(TermId(1)));
        // Empty names are terms too.
        let empty = Dictionary::from_arena("ab".to_string(), vec![0, 2]).unwrap();
        assert_eq!(empty.lookup(""), Some(TermId(0)));
        for ends in [vec![3, 2, 4], vec![5], vec![2]] {
            assert!(
                Dictionary::from_arena("abcd".to_string(), ends.clone()).is_err(),
                "{ends:?}"
            );
        }
        // An end inside a multi-byte character is not a term boundary.
        assert!(Dictionary::from_arena("é".to_string(), vec![1, 2]).is_err());
    }

    #[test]
    fn doubly_layered_dictionary_resolves_every_layer() {
        let mut l0 = Dictionary::new();
        l0.intern("a");
        let mut l1 = Dictionary::layered(std::sync::Arc::new(l0));
        l1.intern("b");
        let mut l2 = Dictionary::layered(std::sync::Arc::new(l1));
        let c = l2.intern("c");
        assert_eq!(c, TermId(2));
        assert_eq!(l2.lookup("a"), Some(TermId(0)));
        assert_eq!(l2.name(TermId(1)), Some("b"));
        assert_eq!(l2.iter().count(), 3);
    }
}
