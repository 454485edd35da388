//! Streaming plain-text edge-list I/O.
//!
//! The format is the common one-edge-per-line interchange format used by
//! SNAP/DIMACS-style datasets: two whitespace-separated vertex ids per
//! line, `#`-prefixed comment lines and blank lines ignored. Vertex count
//! is one more than the largest id seen (or an explicit floor passed by
//! the caller, so isolated tail vertices survive a round trip).
//!
//! Reading streams line-by-line through a [`BufRead`], so a 10⁷-edge file
//! costs one `Vec<(u32, u32)>` plus the CSR build — no per-line
//! allocation beyond the buffered reader's own buffer.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::graph::{Graph, GraphBuilder};

/// Reads a plain-text edge list from `r` into a [`Graph`].
///
/// Duplicate edges are deduplicated by the builder; self-loops are an
/// error (the CONGEST model runs on simple graphs), and so is a vertex id
/// outside the `u32` range graphs are indexed by. `min_n` floors the
/// vertex count, letting callers keep isolated vertices; pass 0 to size
/// the graph by the largest endpoint.
pub fn read_edge_list<R: Read>(r: R, min_n: usize) -> Result<Graph, String> {
    let mut reader = BufReader::new(r);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0usize;
    // one line buffer, refilled in place
    let mut line = String::new();
    for lineno in 1usize.. {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("line {lineno}: {e}")),
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next(), it.next()) {
            (Some(u), Some(v), None) => (u, v),
            _ => return Err(format!("line {lineno}: expected `u v`, got {t:?}")),
        };
        let u: usize = u.parse().map_err(|e| format!("line {lineno}: {e}"))?;
        let v: usize = v.parse().map_err(|e| format!("line {lineno}: {e}"))?;
        if u == v {
            return Err(format!("line {lineno}: self-loop {u}-{v}"));
        }
        // vertex ids are u32 and so is the vertex count, `max id + 1`
        let hi = u.max(v);
        if hi >= u32::MAX as usize {
            return Err(format!("line {lineno}: vertex id {hi} exceeds the u32 vertex range"));
        }
        max_id = max_id.max(hi);
        edges.push((u as u32, v as u32));
    }
    let n = if edges.is_empty() { min_n } else { min_n.max(max_id + 1) };
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges.into_iter().map(|(u, v)| (u as usize, v as usize)));
    Ok(b.build())
}

/// Reads an edge-list file from `path` (see [`read_edge_list`]).
pub fn load_edge_list<P: AsRef<Path>>(path: P, min_n: usize) -> Result<Graph, String> {
    let f = std::fs::File::open(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    read_edge_list(f, min_n)
}

/// Writes `g` as a plain-text edge list: a `# n m` header comment, then
/// one `u v` line per edge in edge-id order.
pub fn write_edge_list<W: Write>(w: W, g: &Graph) -> Result<(), String> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# n={} m={}", g.n(), g.m()).map_err(|e| e.to_string())?;
    for (_, u, v) in g.edges() {
        writeln!(out, "{u} {v}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Writes `g` as an edge-list file at `path` (see [`write_edge_list`]).
pub fn save_edge_list<P: AsRef<Path>>(path: P, g: &Graph) -> Result<(), String> {
    let f = std::fs::File::create(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    write_edge_list(f, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn reads_simple_list_with_comments() {
        let text = "# a comment\n0 1\n\n1 2\n2 0\n";
        let g = read_edge_list(text.as_bytes(), 0).expect("parses");
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn min_n_keeps_isolated_tail() {
        let g = read_edge_list("0 1\n".as_bytes(), 5).expect("parses");
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn rejects_self_loops_and_garbage() {
        assert!(read_edge_list("3 3\n".as_bytes(), 0).is_err());
        assert!(read_edge_list("0 1 2\n".as_bytes(), 0).is_err());
        assert!(read_edge_list("zero one\n".as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_ids_outside_the_u32_vertex_range() {
        let err = read_edge_list("0 1\n0 5000000000\n".as_bytes(), 0).expect_err("id does not fit u32");
        assert!(err.starts_with("line 2:") && err.contains("5000000000"), "{err}");
        // the largest id needs a vertex count of u32::MAX + 1
        assert!(read_edge_list(format!("0 {}\n", u32::MAX).as_bytes(), 0).is_err());
    }

    /// The exact bytes of a small fixed graph: the header, then one line
    /// per edge in edge-id order.
    #[test]
    fn writes_the_exact_edge_list() {
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(3, 1), (0, 1), (2, 3), (0, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &b.build()).expect("writes");
        assert_eq!(String::from_utf8(buf).expect("utf-8"), "# n=5 m=4\n0 1\n0 3\n1 3\n2 3\n");
    }

    /// Error texts name the 1-based line, counting comment and blank lines
    /// and either line ending.
    #[test]
    fn errors_name_the_line() {
        let err = read_edge_list("# c\r\n0 1\r\n\n2 2\n".as_bytes(), 0).expect_err("self-loop");
        assert_eq!(err, "line 4: self-loop 2-2");
        let err = read_edge_list("0 1\n1 x\n".as_bytes(), 0).expect_err("not a number");
        assert_eq!(err, "line 2: invalid digit found in string");
        let err = read_edge_list("0 1\n 1 2 3 \n".as_bytes(), 0).expect_err("three fields");
        assert_eq!(err, "line 2: expected `u v`, got \"1 2 3\"");
        let err = read_edge_list(&b"0 1\n\xff 2\n"[..], 0).expect_err("not utf-8");
        assert_eq!(err, "line 2: stream did not contain valid UTF-8");
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let mut rng = gen::seeded_rng(7);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).expect("writes");
        let h = read_edge_list(buf.as_slice(), g.n()).expect("re-reads");
        assert_eq!(h.n(), g.n());
        assert_eq!(h.m(), g.m());
        assert_eq!(h.csr_offsets(), g.csr_offsets());
        assert_eq!(h.csr_neighbors(), g.csr_neighbors());
    }
}
