//! Edge labels and label interning.
//!
//! The RLC index only ever compares labels for equality and stores short
//! sequences of them, so labels are represented as dense `u16` ids produced
//! by a [`LabelInterner`]. Real-world graphs used by the paper have at most
//! 50 distinct labels (Table III), so `u16` leaves ample headroom while
//! keeping label sequences compact.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A dense edge-label identifier.
///
/// Labels are created by [`LabelInterner::intern`]; the wrapped value is the
/// interner-assigned index and is stable for the lifetime of the graph.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Label(pub u16);

impl Label {
    /// Returns the raw dense index of this label.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a label from a raw dense index.
    ///
    /// Intended for generators and tests that work with anonymous labels
    /// (`l0`, `l1`, …) rather than interned names.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u16::MAX as usize, "label index out of range");
        Label(index as u16)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Bidirectional mapping between label names and dense [`Label`] ids.
///
/// The interner is append-only: once a name is interned its id never changes.
#[derive(Debug, Clone, Default)]
pub struct LabelInterner {
    names: Vec<String>,
    by_name: HashMap<String, Label>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner pre-populated with `count` anonymous labels named
    /// `l0`, `l1`, … — the convention used for synthetic graphs.
    pub fn anonymous(count: usize) -> Self {
        let mut interner = Self::new();
        for i in 0..count {
            interner.intern(&format!("l{i}"));
        }
        interner
    }

    /// Interns `name`, returning its label id. Idempotent.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&label) = self.by_name.get(name) {
            return label;
        }
        let label = Label::from_index(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), label);
        label
    }

    /// Returns the label for `name` if it was interned before.
    pub fn resolve(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `label`, if known.
    pub fn name(&self, label: Label) -> Option<&str> {
        self.names.get(label.index()).map(String::as_str)
    }

    /// Number of distinct labels interned so far (the paper's `|L|`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all labels in id order.
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.names.len()).map(Label::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("knows");
        let b = interner.intern("worksFor");
        let a2 = interner.intern("knows");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolve_and_name_round_trip() {
        let mut interner = LabelInterner::new();
        let debits = interner.intern("debits");
        assert_eq!(interner.resolve("debits"), Some(debits));
        assert_eq!(interner.name(debits), Some("debits"));
        assert_eq!(interner.resolve("missing"), None);
        assert_eq!(interner.name(Label::from_index(7)), None);
    }

    #[test]
    fn anonymous_labels_are_sequential() {
        let interner = LabelInterner::anonymous(4);
        assert_eq!(interner.len(), 4);
        assert_eq!(interner.resolve("l2"), Some(Label(2)));
        assert_eq!(interner.name(Label(3)), Some("l3"));
    }

    #[test]
    fn label_display_and_debug() {
        let l = Label(5);
        assert_eq!(format!("{l}"), "l5");
        assert_eq!(format!("{l:?}"), "l5");
        assert_eq!(l.index(), 5);
    }

    #[test]
    fn iter_yields_all_labels_in_order() {
        let interner = LabelInterner::anonymous(5);
        let collected: Vec<Label> = interner.iter().collect();
        assert_eq!(collected, (0..5).map(Label::from_index).collect::<Vec<_>>());
    }
}
