//! Star-freeness: Lemma 3.1's precondition on the kernel that Theorem
//! 3.2's 2-star / 3-double-star elimination leaves behind.

use crate::Adjacency;
use std::collections::BTreeMap;

/// Checks that `G[kept]` has no 2-star (a vertex with two pendant
/// neighbors), no 3-double-star (a pair with three common degree-2
/// neighbors) and no isolated vertex. `kept[v]` marks the kernel.
pub fn is_star_free(g: &Adjacency, kept: &[bool]) -> bool {
    let mut pendants: BTreeMap<usize, usize> = BTreeMap::new();
    let mut pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for v in (0..g.n()).filter(|&v| kept[v]) {
        let nb: Vec<usize> = g.neighbors(v).iter().copied().filter(|&u| kept[u]).collect();
        // a pendant's center may have one, a degree-2 vertex's pair two
        let (seen, limit) = match nb[..] {
            [] => return false,
            [c] => (pendants.entry(c).or_insert(0), 1),
            [a, b] => (pairs.entry((a, b)).or_insert(0), 2),
            _ => continue,
        };
        *seen += 1;
        if *seen > limit {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stars_and_double_stars_are_refused() {
        let all = [true; 5];
        // a path's middle vertex has two pendants
        assert!(!is_star_free(&Adjacency::new(3, [(0, 1), (1, 2)]), &all[..3]));
        // {0, 1} with three common degree-2 neighbors
        let k23 = Adjacency::new(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
        assert!(!is_star_free(&k23, &all));
        // an isolated kernel vertex
        assert!(!is_star_free(&Adjacency::new(2, []), &[true, false]));
    }

    #[test]
    fn the_kernel_alone_is_judged() {
        let all = [true; 5];
        // one pendant per center, two common degree-2 neighbors per pair
        assert!(is_star_free(&Adjacency::new(2, [(0, 1)]), &all[..2]));
        let c4 = Adjacency::new(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(is_star_free(&c4, &all[..4]));
        // dropping one pendant of the path leaves an edge
        assert!(is_star_free(&Adjacency::new(3, [(0, 1), (1, 2)]), &[true, true, false]));
        // K_{2,3} without one of its three middle vertices is a 4-cycle
        let k23 = Adjacency::new(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
        assert!(is_star_free(&k23, &[true, true, true, true, false]));
    }
}
