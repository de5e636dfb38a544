//! Edge-list persistence for labeled graphs: plain text and a hardened
//! binary format.
//!
//! The text format is one edge per line, `source<TAB>label<TAB>target`, with
//! `#` comment lines. Vertex and label tokens are arbitrary whitespace-free
//! strings; numeric tokens are kept as names too, so a round trip through the
//! format is lossless up to vertex/label renumbering.
//!
//! The binary format (magic `"RLG1"`, see [`to_binary_edge_list`]) is the
//! compact deployment form. Its loader treats the blob as untrusted input:
//! every size field is bounded by the bytes actually present before any
//! allocation, every vertex/label id is range-checked, names must be valid
//! UTF-8 and duplicate-free, and trailing bytes are rejected — the same
//! corruption-blob treatment as `RlcIndex::from_bytes`.

use crate::bounds::{ReadError, Reader};
use crate::builder::GraphBuilder;
use crate::graph::{Edge, LabeledGraph};
use crate::label::{Label, LabelInterner};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors produced by edge-list parsing.
#[derive(Debug)]
pub enum EdgeListError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed line (missing fields), with its 1-based line number.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// The offending line content.
        content: String,
    },
    /// A corrupt or truncated binary edge list.
    Corrupt(String),
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "I/O error: {e}"),
            EdgeListError::Malformed { line, content } => {
                write!(
                    f,
                    "malformed edge list line {line}: {content:?} (expected `source label target`)"
                )
            }
            EdgeListError::Corrupt(what) => {
                write!(f, "corrupt or truncated binary edge list: {what}")
            }
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Malformed { .. } | EdgeListError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

impl From<ReadError> for EdgeListError {
    fn from(e: ReadError) -> Self {
        EdgeListError::Corrupt(e.to_string())
    }
}

/// Parses a labeled graph from edge-list text.
pub fn parse_edge_list(text: &str) -> Result<LabeledGraph, EdgeListError> {
    let mut builder = GraphBuilder::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next()) {
            (Some(s), Some(l), Some(t)) => {
                builder.add_edge_named(s, l, t);
            }
            _ => {
                return Err(EdgeListError::Malformed {
                    line: i + 1,
                    content: raw_line.to_owned(),
                })
            }
        }
    }
    Ok(builder.build())
}

/// Reads a labeled graph from an edge-list file.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<LabeledGraph, EdgeListError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut text = String::new();
    io::Read::read_to_string(&mut reader, &mut text)?;
    parse_edge_list(&text)
}

/// Serializes a labeled graph to edge-list text.
///
/// Named vertices/labels are written with their names; anonymous ones with
/// their numeric ids.
pub fn to_edge_list(graph: &LabeledGraph) -> String {
    let mut out = String::new();
    out.push_str("# source\tlabel\ttarget\n");
    for e in graph.edges() {
        let source = graph
            .vertex_name(e.source)
            .map(str::to_owned)
            .unwrap_or_else(|| e.source.to_string());
        let target = graph
            .vertex_name(e.target)
            .map(str::to_owned)
            .unwrap_or_else(|| e.target.to_string());
        let label = graph
            .labels()
            .name(e.label)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("l{}", e.label.index()));
        out.push_str(&format!("{source}\t{label}\t{target}\n"));
    }
    out
}

/// Writes a labeled graph to an edge-list file.
pub fn write_edge_list<P: AsRef<Path>>(graph: &LabeledGraph, path: P) -> Result<(), EdgeListError> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(to_edge_list(graph).as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Binary edge-list format magic ("RLG1").
const BINARY_MAGIC: u32 = 0x524C_4731;

/// How many *isolated, unnamed* vertices a binary blob may declare without
/// any bytes backing them.
///
/// Building the CSR graph allocates O(vertex count) memory, and isolated
/// unnamed vertices occupy zero bytes in the blob — so without a bound, a
/// hostile 21-byte header declaring `u32::MAX` vertices would drive a
/// multi-gigabyte allocation before any content is validated. Unnamed blobs
/// may therefore declare at most `max(2 × edge count, this allowance)`
/// vertices (beyond the allowance, every vertex must appear in an edge);
/// named blobs are bounded by their name table instead. One million free
/// isolated vertices (~20 MB of CSR bookkeeping) keeps every realistic
/// sparse graph loadable while capping what a tiny blob can allocate.
const ISOLATED_VERTEX_ALLOWANCE: usize = 1 << 20;

/// Serializes a labeled graph to the binary edge-list format (magic
/// `"RLG1"`).
///
/// Layout (all integers little-endian): `u32` magic, `u32` vertex count,
/// `u32` label count, `u64` edge count, one has-vertex-names flag byte, the
/// label names (`u32` length + UTF-8 bytes each), the vertex names when the
/// flag is set (same encoding), then the edges (one [`write_edge`] record
/// each, in out-edge order).
pub fn to_binary_edge_list(graph: &LabeledGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21 + graph.edge_count() * 10);
    buf.extend_from_slice(&BINARY_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(graph.vertex_count() as u32).to_le_bytes());
    buf.extend_from_slice(&(graph.label_count() as u32).to_le_bytes());
    buf.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    let has_names = graph.vertex_count() > 0 && graph.vertex_name(0).is_some();
    buf.push(has_names as u8);
    let put_name = |buf: &mut Vec<u8>, name: &str| {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    };
    for i in 0..graph.label_count() {
        let label = Label::from_index(i);
        match graph.labels().name(label) {
            Some(name) => put_name(&mut buf, name),
            None => put_name(&mut buf, &format!("l{i}")),
        }
    }
    if has_names {
        for v in graph.vertices() {
            let name = graph
                .vertex_name(v)
                .map(str::to_owned)
                .unwrap_or_else(|| v.to_string());
            put_name(&mut buf, &name);
        }
    }
    for e in graph.edges() {
        write_edge(&mut buf, e);
    }
    buf
}

/// Appends one edge record — `u32` source, `u16` label, `u32` target — the
/// form `RLG1` stores its edges in and `RSH1` its cut edges in, and that
/// [`Reader::edge`] reads back.
pub fn write_edge(buf: &mut Vec<u8>, edge: Edge) {
    buf.extend_from_slice(&edge.source.to_le_bytes());
    buf.extend_from_slice(&edge.label.0.to_le_bytes());
    buf.extend_from_slice(&edge.target.to_le_bytes());
}

/// Deserializes a graph produced by [`to_binary_edge_list`], validating the
/// blob as untrusted input (see the module documentation).
pub fn from_binary_edge_list(data: &[u8]) -> Result<LabeledGraph, EdgeListError> {
    let mut r = Reader::new(data);
    let magic = r.u32()?;
    if magic != BINARY_MAGIC {
        return Err(EdgeListError::Corrupt(format!(
            "bad magic {magic:#x}, not a binary edge list"
        )));
    }
    let vertex_count = r.u32()? as usize;
    let label_count = r.u32()? as usize;
    if label_count > u16::MAX as usize + 1 {
        return Err(EdgeListError::Corrupt(format!(
            "label count {label_count} exceeds the u16 label id range"
        )));
    }
    let edge_count = r.u64_count()?;
    let has_names = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(EdgeListError::Corrupt(format!(
                "has-names flag must be 0 or 1, found {other}"
            )))
        }
    };
    // Named blobs bound the vertex count through the name table; unnamed
    // blobs must back vertices beyond the isolated-vertex allowance with
    // edges (see ISOLATED_VERTEX_ALLOWANCE).
    if !has_names && vertex_count > edge_count.saturating_mul(2).max(ISOLATED_VERTEX_ALLOWANCE) {
        return Err(EdgeListError::Corrupt(format!(
            "unnamed blob declares {vertex_count} vertices but only {edge_count} edges \
             back them"
        )));
    }
    let label_names = read_names(&mut r, label_count, "label name")?;
    let vertex_names = if has_names {
        Some(read_names(&mut r, vertex_count, "vertex name")?)
    } else {
        None
    };
    let edge_count = r.checked_len(edge_count, 10, "edge table")?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let edge = r.edge()?;
        for id in [edge.source, edge.target] {
            if id as usize >= vertex_count {
                return Err(EdgeListError::Corrupt(format!(
                    "vertex id {id} out of range for {vertex_count} vertices"
                )));
            }
        }
        if edge.label.index() >= label_count {
            return Err(EdgeListError::Corrupt(format!(
                "label id {} out of range for {label_count} labels",
                edge.label.0
            )));
        }
        edges.push(edge);
    }
    r.finish()?;
    let mut labels = LabelInterner::new();
    for name in &label_names {
        labels.intern(name);
    }
    Ok(LabeledGraph::from_edges(
        vertex_count,
        &edges,
        labels,
        vertex_names,
    ))
}

/// Reads `count` distinct UTF-8 names (`u32` length + bytes each).
fn read_names(
    r: &mut Reader<'_>,
    count: usize,
    what: &'static str,
) -> Result<Vec<String>, EdgeListError> {
    let count = r.checked_len(count, 4, what)?;
    let mut names = Vec::with_capacity(count);
    let mut seen = HashSet::with_capacity(count);
    for i in 0..count {
        let len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| EdgeListError::Corrupt(format!("{what} {i} is not valid UTF-8")))?
            .to_owned();
        if !seen.insert(name.clone()) {
            return Err(EdgeListError::Corrupt(format!(
                "{what} {i} duplicates the name {name:?}"
            )));
        }
        names.push(name);
    }
    Ok(names)
}

/// Writes a labeled graph to a binary edge-list file.
pub fn write_binary_edge_list<P: AsRef<Path>>(
    graph: &LabeledGraph,
    path: P,
) -> Result<(), EdgeListError> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(&to_binary_edge_list(graph))?;
    writer.flush()?;
    Ok(())
}

/// Reads a labeled graph from a binary edge-list file.
pub fn read_binary_edge_list<P: AsRef<Path>>(path: P) -> Result<LabeledGraph, EdgeListError> {
    from_binary_edge_list(&std::fs::read(path)?)
}

/// Reads an *unlabeled* edge list (`source target` per line), producing a
/// graph whose every edge carries the single label `l0`. This mirrors how the
/// paper ingests SNAP/KONECT graphs before synthetic label assignment.
pub fn parse_unlabeled_edge_list(text: &str) -> Result<LabeledGraph, EdgeListError> {
    let mut builder = GraphBuilder::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next()) {
            (Some(s), Some(t)) => {
                builder.add_edge_named(s, "l0", t);
            }
            _ => {
                return Err(EdgeListError::Malformed {
                    line: i + 1,
                    content: raw_line.to_owned(),
                })
            }
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::fig2_graph;

    #[test]
    fn parse_simple_edge_list() {
        let text = "# comment\n a knows b \nb worksFor c\n\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.labels().resolve("knows").is_some());
    }

    #[test]
    fn malformed_line_is_reported_with_line_number() {
        let text = "a knows b\nbroken-line\n";
        match parse_edge_list(text) {
            Err(EdgeListError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = fig2_graph();
        let text = to_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.label_count(), g.label_count());
        // Structural equivalence under the name mapping.
        for e in g.edges() {
            let s = back
                .vertex_id(g.vertex_name(e.source).unwrap())
                .expect("vertex preserved");
            let t = back
                .vertex_id(g.vertex_name(e.target).unwrap())
                .expect("vertex preserved");
            let l = back
                .labels()
                .resolve(g.labels().name(e.label).unwrap())
                .expect("label preserved");
            assert!(back.has_edge(s, l, t));
        }
    }

    #[test]
    fn file_round_trip() {
        let g = fig2_graph();
        let dir = std::env::temp_dir().join("rlc-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.edges");
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(back.edge_count(), g.edge_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unlabeled_edge_list_gets_single_label() {
        let g = parse_unlabeled_edge_list("1 2\n2 3\n3 1\n").unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.label_count(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let err = parse_edge_list("oops").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 1"));
        assert!(msg.contains("oops"));
        let corrupt = EdgeListError::Corrupt("header".into());
        assert!(format!("{corrupt}").contains("header"));
    }

    #[test]
    fn binary_round_trip_preserves_structure_and_names() {
        let g = fig2_graph();
        let blob = to_binary_edge_list(&g);
        let back = from_binary_edge_list(&blob).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.label_count(), g.label_count());
        for e in g.edges() {
            assert!(back.has_edge(e.source, e.label, e.target));
        }
        for v in g.vertices() {
            assert_eq!(back.vertex_name(v), g.vertex_name(v));
            assert_eq!(back.vertex_id(g.vertex_name(v).unwrap()), Some(v));
        }
        for l in g.labels().iter() {
            assert_eq!(back.labels().name(l), g.labels().name(l));
        }
        // The binary form is canonical: re-serializing yields the same bytes.
        assert_eq!(to_binary_edge_list(&back), blob);
    }

    #[test]
    fn binary_round_trip_without_vertex_names() {
        let mut b = GraphBuilder::with_capacity(4, 2);
        b.add_edge(0, crate::label::Label(0), 1);
        b.add_edge(1, crate::label::Label(1), 2);
        b.add_edge(2, crate::label::Label(0), 3);
        let g = b.build();
        let back = from_binary_edge_list(&to_binary_edge_list(&g)).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for e in g.edges() {
            assert!(back.has_edge(e.source, e.label, e.target));
        }
    }

    #[test]
    fn binary_file_round_trip() {
        let g = fig2_graph();
        let dir = std::env::temp_dir().join("rlc-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.rlg");
        write_binary_edge_list(&g, &path).unwrap();
        let back = read_binary_edge_list(&path).unwrap();
        assert_eq!(back.edge_count(), g.edge_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_binary_blobs_are_rejected() {
        let g = fig2_graph();
        let blob = to_binary_edge_list(&g);

        // Truncations at every prefix must error, never panic.
        for len in 0..blob.len() {
            assert!(from_binary_edge_list(&blob[..len]).is_err(), "prefix {len}");
        }

        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            from_binary_edge_list(&bad),
            Err(EdgeListError::Corrupt(m)) if m.contains("magic")
        ));

        // Oversized edge count must be caught by the division-form bound
        // before any allocation.
        let mut bad = blob.clone();
        bad[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_binary_edge_list(&bad).is_err());

        // Invalid has-names flag.
        let mut bad = blob.clone();
        bad[20] = 9;
        assert!(matches!(
            from_binary_edge_list(&bad),
            Err(EdgeListError::Corrupt(m)) if m.contains("flag")
        ));

        // Out-of-range ids: shrink the declared vertex count.
        let mut bad = blob.clone();
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(from_binary_edge_list(&bad).is_err());

        // Trailing bytes.
        let mut bad = blob.clone();
        bad.push(0);
        assert!(matches!(
            from_binary_edge_list(&bad),
            Err(EdgeListError::Corrupt(m)) if m.contains("trailing")
        ));

        // Oversized label count (beyond the u16 id range).
        let mut bad = blob;
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_binary_edge_list(&bad).is_err());
    }

    #[test]
    fn tiny_blob_cannot_declare_billions_of_unnamed_vertices() {
        // A hostile 21-byte header declaring u32::MAX isolated unnamed
        // vertices must be rejected before any O(vertex_count) allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BINARY_MAGIC.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // vertices
        buf.extend_from_slice(&0u32.to_le_bytes()); // labels
        buf.extend_from_slice(&0u64.to_le_bytes()); // edges
        buf.push(0); // unnamed
        assert!(matches!(
            from_binary_edge_list(&buf),
            Err(EdgeListError::Corrupt(m)) if m.contains("back them")
        ));
        // Isolated unnamed vertices below the allowance stay loadable.
        let mut b = GraphBuilder::with_capacity(1000, 1);
        b.add_edge(0, crate::label::Label(0), 1);
        let g = b.build();
        let back = from_binary_edge_list(&to_binary_edge_list(&g)).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
    }

    #[test]
    fn duplicate_names_in_binary_blobs_are_rejected() {
        // Hand-build a blob with two vertices sharing a name.
        let mut buf = Vec::new();
        buf.extend_from_slice(&super::BINARY_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes()); // vertices
        buf.extend_from_slice(&1u32.to_le_bytes()); // labels
        buf.extend_from_slice(&0u64.to_le_bytes()); // edges
        buf.push(1); // named
        for name in ["x", "dup", "dup"] {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        assert!(matches!(
            from_binary_edge_list(&buf),
            Err(EdgeListError::Corrupt(m)) if m.contains("duplicates")
        ));
    }
}
