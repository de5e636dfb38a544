//! EXPLAIN trace trees and the bounded trace journal.
//!
//! A [`TraceNode`] is a machine-readable record of one execution
//! decision: a name, ordered `key → value` attributes, and child nodes.
//! The planner builds one node per batch with one child per query;
//! engines append their routing decisions (cache hit, shard route,
//! stitch counters). Rendering is hand-rolled JSON —
//! this crate stays dependency-free — with the schema:
//!
//! ```json
//! {"name":"batch","attrs":{"k":"v"},"children":[{"name":"query",...}]}
//! ```
//!
//! Attribute values are strings; numeric attributes are rendered in
//! decimal by the writer and re-parsed by consumers that need them.

use crate::lock_recover;
use std::collections::VecDeque;
use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Escapes `s` for inclusion in a JSON string literal (without quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One node of an EXPLAIN trace tree. See the module docs for the JSON
/// schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceNode {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<TraceNode>,
}

impl TraceNode {
    /// A node with no attributes or children.
    pub fn new(name: &str) -> Self {
        TraceNode {
            name: name.to_owned(),
            ..TraceNode::default()
        }
    }

    /// Appends an attribute (insertion order is preserved; keys are not
    /// deduplicated — writers own their key discipline).
    pub fn attr(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.attrs.push((key.to_owned(), value.to_string()));
        self
    }

    /// Appends a child node.
    pub fn child(&mut self, child: TraceNode) -> &mut Self {
        self.children.push(child);
        self
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's attributes, in insertion order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attrs
    }

    /// The node's children.
    pub fn children(&self) -> &[TraceNode] {
        &self.children
    }

    /// First value of attribute `key`, if present on this node.
    pub fn find_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Depth-first search for the first node (self included) carrying
    /// attribute `key`; returns its value.
    pub fn find_attr_deep(&self, key: &str) -> Option<&str> {
        self.find_attr(key)
            .or_else(|| self.children.iter().find_map(|c| c.find_attr_deep(key)))
    }

    /// Renders the subtree as one compact JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"attrs\":{{",
            json_escape(&self.name)
        );
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("},\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }
}

/// A bounded ring of recent trace trees (the serve layer keeps one per
/// server and exposes it as `GET /admin/explain`).
#[derive(Debug)]
pub struct TraceJournal {
    ring: Mutex<VecDeque<TraceNode>>,
    cap: usize,
}

impl TraceJournal {
    /// A journal retaining at most `cap` trees (`cap == 0` retains none).
    pub fn new(cap: usize) -> Self {
        TraceJournal {
            ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap,
        }
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a tree, evicting the oldest past capacity.
    pub fn push(&self, node: TraceNode) {
        if self.cap == 0 {
            return;
        }
        let mut ring = lock_recover(&self.ring);
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(node);
    }

    /// The most recent `last` trees, newest first.
    pub fn last(&self, last: usize) -> Vec<TraceNode> {
        let ring = lock_recover(&self.ring);
        ring.iter().rev().take(last).cloned().collect()
    }

    /// Number of retained trees.
    pub fn len(&self) -> usize {
        lock_recover(&self.ring).len()
    }

    /// Whether the journal holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_schema_round_trips_the_shape() {
        let mut root = TraceNode::new("batch");
        root.attr("queries", 2).attr("engine", "index");
        let mut q = TraceNode::new("query");
        q.attr("route", "stitched")
            .attr("note", "a \"quoted\"\nvalue");
        root.child(q);
        let json = root.to_json();
        assert!(json.starts_with("{\"name\":\"batch\",\"attrs\":{\"queries\":\"2\""));
        assert!(json.contains("\"children\":[{\"name\":\"query\""));
        assert!(json.contains("a \\\"quoted\\\"\\nvalue"));
        assert_eq!(root.find_attr("engine"), Some("index"));
        assert_eq!(root.find_attr_deep("route"), Some("stitched"));
        assert_eq!(root.find_attr("route"), None);
    }

    #[test]
    fn journal_is_bounded_and_newest_first() {
        let journal = TraceJournal::new(3);
        for i in 0..5 {
            let mut n = TraceNode::new("t");
            n.attr("i", i);
            journal.push(n);
        }
        assert_eq!(journal.len(), 3);
        let last = journal.last(2);
        assert_eq!(last[0].find_attr("i"), Some("4"));
        assert_eq!(last[1].find_attr("i"), Some("3"));
        assert_eq!(journal.last(10).len(), 3);

        let disabled = TraceJournal::new(0);
        disabled.push(TraceNode::new("t"));
        assert!(disabled.is_empty());
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("t\\n"), "t\\\\n");
    }
}
