//! Vertex ↔ name directory.
//!
//! Twitter analysis reports ranked *handles* (Table IV lists `@CDCFlu`,
//! `@ajc`, …), so the tweet-to-graph pipeline interns each screen name to
//! a dense vertex id and keeps the reverse mapping here.
//!
//! Every name is stored once, in a single `String` arena with one end
//! offset per id.  The index is an open-addressing table of
//! `(hash, id)` slots with linear probing, kept at most half full, so a
//! lookup compares a 32-bit hash before it touches the arena and a hit
//! allocates nothing.  The hash is keyed (`RandomState`, SipHash) so
//! that crafted names cannot force collisions.

use crate::types::VertexId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks an empty slot; no name ever gets this id.
const EMPTY: VertexId = VertexId::MAX;

/// Slot count of the first table.
const MIN_SLOTS: usize = 16;

/// One index entry: the low 32 bits of the name's hash and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: VertexId,
}

const VACANT: Slot = Slot { hash: 0, id: EMPTY };

/// An interning table mapping string labels to dense vertex ids.
#[derive(Clone, Default)]
pub struct VertexLabels {
    /// Every name, concatenated in id order.
    arena: String,
    /// `ends[v]` is where name `v` ends in `arena`; it starts where name
    /// `v - 1` ends.
    ends: Vec<usize>,
    /// Open-addressing index; its length is zero or a power of two.
    slots: Vec<Slot>,
    hasher: RandomState,
}

impl VertexLabels {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> VertexId {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.hash(name);
        match self.find(name, hash) {
            Ok(id) => id,
            Err(slot) => {
                let id = VertexId::try_from(self.ends.len())
                    .ok()
                    .filter(|&id| id != EMPTY)
                    .expect("vertex id space exhausted");
                self.arena.push_str(name);
                self.ends.push(self.arena.len());
                self.slots[slot] = Slot { hash, id };
                id
            }
        }
    }

    /// Look up an existing name without interning.
    pub fn get(&self, name: &str) -> Option<VertexId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(name, self.hash(name)).ok()
    }

    /// The label of vertex `v`, if assigned.
    pub fn name(&self, v: VertexId) -> Option<&str> {
        let v = v as usize;
        let end = *self.ends.get(v)?;
        let start = if v == 0 { 0 } else { self.ends[v - 1] };
        Some(&self.arena[start..end])
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no labels are interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .enumerate()
            .map(|(i, (start, &end))| (i as VertexId, &self.arena[start..end]))
    }

    fn hash(&self, name: &str) -> u32 {
        self.hasher.hash_one(name) as u32
    }

    /// `Ok(id)` when `name` is interned, else `Err(slot)` with the
    /// vacant slot where it belongs.  The table must be non-empty and
    /// not full.
    fn find(&self, name: &str, hash: u32) -> Result<VertexId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && self.name(slot.id) == Some(name) {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table (the stored hashes re-place every slot; no
    /// name is hashed again).
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; size]);
        let mask = size - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

impl std::fmt::Debug for VertexLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(_, name)| name))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut l = VertexLabels::new();
        let a = l.intern("@CDCFlu");
        let b = l.intern("@ajc");
        assert_eq!(l.intern("@CDCFlu"), a);
        assert_ne!(a, b);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn lookup_both_directions() {
        let mut l = VertexLabels::new();
        let id = l.intern("@nytimes");
        assert_eq!(l.get("@nytimes"), Some(id));
        assert_eq!(l.get("@missing"), None);
        assert_eq!(l.name(id), Some("@nytimes"));
        assert_eq!(l.name(99), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut l = VertexLabels::new();
        for i in 0..100 {
            assert_eq!(l.intern(&format!("u{i}")), i as VertexId);
        }
        let pairs: Vec<_> = l.iter().collect();
        assert_eq!(pairs[7], (7, "u7"));
        assert_eq!(pairs.len(), 100);
    }

    #[test]
    fn empty_directory() {
        let l = VertexLabels::new();
        assert!(l.is_empty());
        assert_eq!(l.iter().count(), 0);
        assert_eq!(l.get(""), None);
        assert_eq!(l.name(0), None);
    }

    #[test]
    fn ids_survive_many_table_resizes() {
        let mut l = VertexLabels::new();
        let names: Vec<String> = (0..5000).map(|i| format!("user_{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(l.intern(n), i as VertexId);
        }
        // A second pass hits every name without interning anything.
        for (i, n) in names.iter().enumerate() {
            assert_eq!(l.intern(n), i as VertexId);
            assert_eq!(l.get(n), Some(i as VertexId));
            assert_eq!(l.name(i as VertexId), Some(n.as_str()));
        }
        assert_eq!(l.len(), names.len());
        assert!(l
            .iter()
            .map(|(_, n)| n)
            .eq(names.iter().map(String::as_str)));
        assert_eq!(l.get("user_5000"), None);
    }

    #[test]
    fn empty_name_is_a_label() {
        let mut l = VertexLabels::new();
        assert_eq!(l.intern("a"), 0);
        assert_eq!(l.intern(""), 1);
        assert_eq!(l.intern("b"), 2);
        assert_eq!(l.intern(""), 1);
        assert_eq!(l.get(""), Some(1));
        assert_eq!(l.name(1), Some(""));
        assert_eq!(l.name(2), Some("b"));
        let pairs: Vec<_> = l.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, ""), (2, "b")]);
    }

    #[test]
    fn prefixes_and_non_ascii_names_stay_distinct() {
        let mut l = VertexLabels::new();
        let names = ["ab", "a", "abc", "b", "café", "caf", "中文", "中"];
        for (i, n) in names.iter().enumerate() {
            assert_eq!(l.intern(n), i as VertexId);
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(l.get(n), Some(i as VertexId));
            assert_eq!(l.name(i as VertexId), Some(*n));
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = VertexLabels::new();
        a.intern("x");
        a.intern("y");
        let mut b = a.clone();
        assert_eq!(b.get("y"), Some(1));
        assert_eq!(b.intern("z"), 2);
        assert_eq!(a.intern("w"), 2);
        assert_eq!(a.get("z"), None);
        assert_eq!(b.get("w"), None);
        assert_eq!(a.name(2), Some("w"));
        assert_eq!(b.name(2), Some("z"));
        // Growing one copy's table leaves the other's lookups intact.
        for i in 0..100 {
            b.intern(&format!("n{i}"));
        }
        assert_eq!(a.len(), 3);
        assert_eq!(a.get("x"), Some(0));
        assert_eq!(b.get("x"), Some(0));
        assert_eq!(b.get("n99"), Some(102));
    }
}
