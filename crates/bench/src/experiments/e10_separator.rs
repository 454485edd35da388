//! **E10** — Theorem 1.6: H-minor-free graphs have balanced edge
//! separators of size `O(√(Δn))`. The witness quality `|∂S|/√(Δn)` must
//! stay bounded by a constant as n grows on minor-free families — and
//! visibly diverge on hypercubes (which have no small separators).

use lcg_graph::{gen, separator};

use crate::workloads::Family;
use crate::{cells, Opts, Table};

/// Runs E10.
pub fn run(opts: &Opts) -> Vec<Table> {
    let sizes: &[usize] = opts.scale.pick(&[64, 256, 1024][..], &[64, 256, 1024, 4096, 16384][..]);
    let mut t = Table::new(
        "E10",
        "Theorem 1.6: balanced edge separators; quality = |∂S|/√(Δn) bounded on minor-free families",
        &["family", "n", "Δ", "cut", "balanced", "quality"],
    );
    let mut rng = gen::seeded_rng(0xE10);
    for &fam in &[
        Family::MaximalPlanar,
        Family::Planar,
        Family::Ktree3,
        Family::Torus,
        Family::Hypercube,
    ] {
        for &n in sizes {
            if fam == Family::Hypercube && n > 4096 {
                continue;
            }
            let g = fam.generate(n, &mut rng);
            if !g.is_connected() || g.n() < 3 {
                continue;
            }
            let sep = separator::edge_separator(&g, 4, 6, &mut rng);
            t.row(cells!(
                fam.name(),
                g.n(),
                g.max_degree(),
                sep.cut_size,
                sep.is_balanced(g.n()),
                format!("{:.3}", separator::separator_quality(&g, &sep))
            ));
        }
    }
    vec![t]
}
