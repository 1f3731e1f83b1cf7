//! String interning for query and ad display names.
//!
//! The click graph's algorithms work on dense `u32` ids; the interner maps
//! between those ids and the human-readable query strings / ad identifiers,
//! exactly once per distinct string.

use serde::{Deserialize, Serialize};
use simrankpp_util::FxHashMap;
use std::sync::Arc;

/// A bidirectional string ↔ dense-id map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Interner {
    names: Vec<String>,
    #[serde(skip)]
    index: FxHashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing id if already present).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// [`Interner::intern`] into a table shared with frozen graphs: a known
    /// name only looks up, and a new one copies the table first if anyone
    /// else still holds it.
    pub(crate) fn intern_shared(names: &mut Arc<Interner>, name: &str) -> u32 {
        match names.get(name) {
            Some(id) => id,
            None => Arc::make_mut(names).intern(name),
        }
    }

    /// Looks up the id for `name` without inserting.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The name for `id`, if in range.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }

    /// Rebuilds the reverse index (needed after deserialization, where the
    /// index is skipped).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
    }
}

/// Two interners are equal when they hold the same names in the same id
/// order; the derived reverse index is a cache and doesn't participate.
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for Interner {}

impl FromIterator<String> for Interner {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut interner = Interner::new();
        for name in iter {
            interner.intern(&name);
        }
        interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_once() {
        let mut i = Interner::new();
        let a = i.intern("camera");
        let b = i.intern("camera");
        let c = i.intern("pc");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn bidirectional_lookup() {
        let mut i = Interner::new();
        let id = i.intern("digital camera");
        assert_eq!(i.get("digital camera"), Some(id));
        assert_eq!(i.name(id), Some("digital camera"));
        assert_eq!(i.get("tv"), None);
        assert_eq!(i.name(999), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let got: Vec<_> = i.iter().map(|(id, n)| (id, n.to_owned())).collect();
        assert_eq!(got, vec![(0, "a".into()), (1, "b".into()), (2, "c".into())]);
    }

    #[test]
    fn rebuild_index_after_clone_of_names() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let mut copy = Interner {
            names: i.names.clone(),
            index: FxHashMap::default(),
        };
        assert_eq!(copy.get("x"), None); // index empty before rebuild
        copy.rebuild_index();
        assert_eq!(copy.get("x"), Some(0));
        assert_eq!(copy.get("y"), Some(1));
    }

    #[test]
    fn from_iterator() {
        let i: Interner = ["p", "q", "p"].iter().map(|s| s.to_string()).collect();
        assert_eq!(i.len(), 2);
    }
}
