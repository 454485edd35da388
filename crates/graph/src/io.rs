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
    let reader = BufReader::new(r);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_id = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next(), it.next()) {
            (Some(u), Some(v), None) => (u, v),
            _ => return Err(format!("line {}: expected `u v`, got {t:?}", lineno + 1)),
        };
        let u: usize = u.parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let v: usize = v.parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if u == v {
            return Err(format!("line {}: self-loop {u}-{v}", lineno + 1));
        }
        // vertex ids are u32 and so is the vertex count, `max id + 1`
        let hi = u.max(v);
        if hi >= u32::MAX as usize {
            return Err(format!("line {}: vertex id {hi} exceeds the u32 vertex range", lineno + 1));
        }
        max_id = max_id.max(hi);
        edges.push((u, v));
    }
    let n = if edges.is_empty() { min_n } else { min_n.max(max_id + 1) };
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges);
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
    let emit = |out: &mut BufWriter<W>, s: String| {
        out.write_all(s.as_bytes()).map_err(|e| e.to_string())
    };
    emit(&mut out, format!("# n={} m={}\n", g.n(), g.m()))?;
    for (_, u, v) in g.edges() {
        emit(&mut out, format!("{u} {v}\n"))?;
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
