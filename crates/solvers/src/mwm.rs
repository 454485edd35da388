//! Maximum weight matching: the Galil primal–dual blossom algorithm,
//! `O(n³)`, in the formulation of van Rantwijk's classic implementation
//! (the same reference implementation NetworkX uses).
//!
//! This is the exact sequential solver a cluster leader runs inside the
//! Theorem 1.1 scaling harness (`lcg-core::apps::mwm`), and the
//! optimum-oracle for the weighted matching experiments. The paper's
//! Duan–Pettie machinery is substituted per DESIGN.md; exactness here only
//! *strengthens* the per-cluster step.
//!
//! [`greedy_mwm`] is the classical sorted-greedy 1/2-approximation used as
//! a baseline.

use lcg_graph::Graph;

const NONE: i64 = -1;

/// Computes a maximum weight matching of `g` (edge weights from the graph;
/// unweighted graphs get weight 1 per edge, making this a maximum
/// cardinality matching... of maximum size among max-weight ones).
///
/// Returns the partner table.
///
/// # Examples
///
/// ```
/// use lcg_graph::gen;
/// use lcg_solvers::mwm::{maximum_weight_matching, matching_weight};
///
/// let mut rng = gen::seeded_rng(1);
/// let g = gen::random_weights(gen::cycle(5), 10, &mut rng);
/// let mate = maximum_weight_matching(&g);
/// let w = matching_weight(&g, &mate);
/// assert!(w > 0);
/// ```
pub fn maximum_weight_matching(g: &Graph) -> Vec<Option<usize>> {
    let edges: Vec<(usize, usize, i64)> = g
        .edges()
        .map(|(e, u, v)| (u, v, g.weight(e) as i64))
        .collect();
    max_weight_matching_edges(g.n(), &edges)
}

/// Total weight of a matching given as a partner table.
pub fn matching_weight(g: &Graph, mate: &[Option<usize>]) -> u64 {
    let mut w = 0;
    for (v, &m) in mate.iter().enumerate() {
        if let Some(u) = m {
            if v < u {
                w += g.weight(g.edge_id(v, u).expect("matched pair must be an edge"));
            }
        }
    }
    w
}

/// Checks that a partner table is a valid matching of `g`.
pub fn is_valid_matching(g: &Graph, mate: &[Option<usize>]) -> bool {
    for (v, &m) in mate.iter().enumerate() {
        if let Some(u) = m {
            if u == v || mate[u] != Some(v) || !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// Sorted-greedy 1/2-approximate maximum weight matching (the classical
/// baseline): scan edges by decreasing weight, take each if both endpoints
/// are free.
pub fn greedy_mwm(g: &Graph) -> Vec<Option<usize>> {
    let mut ids: Vec<usize> = (0..g.m()).collect();
    ids.sort_by_key(|&e| std::cmp::Reverse(g.weight(e)));
    let mut mate: Vec<Option<usize>> = vec![None; g.n()];
    for e in ids {
        let (u, v) = g.endpoints(e);
        if mate[u].is_none() && mate[v].is_none() {
            mate[u] = Some(v);
            mate[v] = Some(u);
        }
    }
    mate
}

/// Core algorithm on an explicit edge list (weights may be arbitrary
/// non-negative integers; edges with non-positive weight never help a
/// maximum weight matching and are kept for structural fidelity).
fn max_weight_matching_edges(
    nvertex: usize,
    edges: &[(usize, usize, i64)],
) -> Vec<Option<usize>> {
    if edges.is_empty() || nvertex == 0 {
        return vec![None; nvertex];
    }
    let mut st = Mwm::new(nvertex, edges.to_vec());
    st.run();
    (0..nvertex)
        .map(|v| {
            let m = st.mate[v];
            if m == NONE {
                None
            } else {
                Some(st.endpoint[m as usize])
            }
        })
        .collect()
}

/// State of the primal–dual blossom algorithm. Indices `0..n` are
/// vertices, `n..2n` are (potential) blossoms. `endpoint[p]` is the vertex
/// at endpoint `p` of edge `p/2`; `p ^ 1` is the opposite endpoint.
struct Mwm {
    n: usize,
    edges: Vec<(usize, usize, i64)>,
    endpoint: Vec<usize>,
    neighbend: Vec<Vec<usize>>,
    mate: Vec<i64>,
    label: Vec<u8>,
    labelend: Vec<i64>,
    inblossom: Vec<usize>,
    blossomparent: Vec<i64>,
    blossomchilds: Vec<Option<Vec<usize>>>,
    blossombase: Vec<i64>,
    blossomendps: Vec<Option<Vec<usize>>>,
    bestedge: Vec<i64>,
    blossombestedges: Vec<Option<Vec<usize>>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
}

impl Mwm {
    fn new(n: usize, edges: Vec<(usize, usize, i64)>) -> Mwm {
        let nedge = edges.len();
        let maxweight = edges.iter().map(|e| e.2).max().unwrap_or(0).max(0);
        let mut endpoint = Vec::with_capacity(2 * nedge);
        for &(i, j, _) in &edges {
            endpoint.push(i);
            endpoint.push(j);
        }
        let mut neighbend = vec![Vec::new(); n];
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            neighbend[i].push(2 * k + 1);
            neighbend[j].push(2 * k);
        }
        Mwm {
            n,
            edges,
            endpoint,
            neighbend,
            mate: vec![NONE; n],
            label: vec![0; 2 * n],
            labelend: vec![NONE; 2 * n],
            inblossom: (0..n).collect(),
            blossomparent: vec![NONE; 2 * n],
            blossomchilds: vec![None; 2 * n],
            blossombase: (0..n as i64).chain(std::iter::repeat_n(NONE, n)).collect(),
            blossomendps: vec![None; 2 * n],
            bestedge: vec![NONE; 2 * n],
            blossombestedges: vec![None; 2 * n],
            unusedblossoms: (n..2 * n).collect(),
            dualvar: std::iter::repeat_n(maxweight, n)
                .chain(std::iter::repeat_n(0, n))
                .collect(),
            allowedge: vec![false; nedge],
            queue: Vec::new(),
        }
    }

    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    fn blossom_leaves(&self, b: usize, out: &mut Vec<usize>) {
        if b < self.n {
            out.push(b);
        } else {
            for &t in self.blossomchilds[b].as_ref().expect("composite blossom has children") {
                if t < self.n {
                    out.push(t);
                } else {
                    self.blossom_leaves(t, out);
                }
            }
        }
    }

    fn leaves(&self, b: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.blossom_leaves(b, &mut out);
        out
    }

    fn assign_label(&mut self, w: usize, t: u8, p: i64) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            let lv = self.leaves(b);
            self.queue.extend(lv);
        } else if t == 2 {
            let base = self.blossombase[b] as usize;
            debug_assert!(self.mate[base] >= 0);
            let mb = self.mate[base] as usize;
            self.assign_label(self.endpoint[mb], 1, self.mate[base] ^ 1);
        }
    }

    fn scan_blossom(&mut self, v: usize, w: usize) -> i64 {
        let mut path = Vec::new();
        let mut base = NONE;
        let mut v = v as i64;
        let mut w = w as i64;
        while v != NONE || w != NONE {
            let b = self.inblossom[v as usize];
            if self.label[b] & 4 != 0 {
                base = self.blossombase[b];
                break;
            }
            debug_assert_eq!(self.label[b], 1);
            path.push(b);
            self.label[b] = 5;
            debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b] as usize]);
            if self.labelend[b] == NONE {
                v = NONE;
            } else {
                v = self.endpoint[self.labelend[b] as usize] as i64;
                let b2 = self.inblossom[v as usize];
                debug_assert_eq!(self.label[b2], 2);
                debug_assert!(self.labelend[b2] >= 0);
                v = self.endpoint[self.labelend[b2] as usize] as i64;
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for b in path {
            self.label[b] = 1;
        }
        base
    }

    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("free blossom slot");
        self.blossombase[b] = base as i64;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as i64;
        let mut path = Vec::new();
        let mut endps = Vec::new();
        while bv != bb {
            self.blossomparent[bv] = b as i64;
            path.push(bv);
            endps.push(self.labelend[bv] as usize);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv] as usize])
            );
            debug_assert!(self.labelend[bv] >= 0);
            v = self.endpoint[self.labelend[bv] as usize];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb {
            self.blossomparent[bw] = b as i64;
            path.push(bw);
            endps.push((self.labelend[bw] as usize) ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw] as usize])
            );
            debug_assert!(self.labelend[bw] >= 0);
            w = self.endpoint[self.labelend[bw] as usize];
            bw = self.inblossom[w];
        }
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        let leaves = {
            self.blossomchilds[b] = Some(path.clone());
            self.blossomendps[b] = Some(endps);
            self.leaves(b)
        };
        for lv in &leaves {
            if self.label[self.inblossom[*lv]] == 2 {
                self.queue.push(*lv);
            }
            self.inblossom[*lv] = b;
        }
        // compute blossombestedges[b]
        let mut bestedgeto = vec![NONE; 2 * self.n];
        for &bv in &path {
            let nblists: Vec<Vec<usize>> = match &self.blossombestedges[bv] {
                Some(list) => vec![list.clone()],
                None => self
                    .leaves(bv)
                    .into_iter()
                    .map(|lv| self.neighbend[lv].iter().map(|&p| p / 2).collect())
                    .collect(),
            };
            for nblist in nblists {
                for k2 in nblist {
                    let (mut i, mut j, _) = self.edges[k2];
                    if self.inblossom[j] == b {
                        std::mem::swap(&mut i, &mut j);
                    }
                    let bj = self.inblossom[j];
                    if bj != b
                        && self.label[bj] == 1
                        && (bestedgeto[bj] == NONE
                            || self.slack(k2) < self.slack(bestedgeto[bj] as usize))
                    {
                        bestedgeto[bj] = k2 as i64;
                    }
                    let _ = i;
                }
            }
            self.blossombestedges[bv] = None;
            self.bestedge[bv] = NONE;
        }
        let best: Vec<usize> = bestedgeto
            .into_iter()
            .filter(|&k| k != NONE)
            .map(|k| k as usize)
            .collect();
        self.bestedge[b] = NONE;
        for &k2 in &best {
            if self.bestedge[b] == NONE || self.slack(k2) < self.slack(self.bestedge[b] as usize) {
                self.bestedge[b] = k2 as i64;
            }
        }
        self.blossombestedges[b] = Some(best);
    }

    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = self.blossomchilds[b].clone().expect("composite blossom has children");
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.n {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                for lv in self.leaves(s) {
                    self.inblossom[lv] = s;
                }
            }
        }
        if !endstage && self.label[b] == 2 {
            debug_assert!(self.labelend[b] >= 0);
            let entrychild = self.inblossom[self.endpoint[(self.labelend[b] as usize) ^ 1]];
            let childs = self.blossomchilds[b].clone().expect("composite blossom has children");
            let endps = self.blossomendps[b].clone().expect("composite blossom has endpoints");
            let len = childs.len() as i64;
            let mut j = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entry child is among blossom children") as i64;
            let (jstep, endptrick): (i64, usize) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let idx = |j: i64| -> usize { childs[(j.rem_euclid(len)) as usize] };
            let eidx = |j: i64| -> usize { endps[(j.rem_euclid(len)) as usize] };
            let mut p = self.labelend[b] as usize;
            while j != 0 {
                // relabel the T-sub-blossom
                self.label[self.endpoint[p ^ 1]] = 0;
                self.label[self.endpoint[eidx(j - endptrick as i64) ^ endptrick ^ 1]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p as i64);
                // step to the next S-sub-blossom
                self.allowedge[eidx(j - endptrick as i64) / 2] = true;
                j += jstep;
                p = eidx(j - endptrick as i64) ^ endptrick;
                // step to the next T-sub-blossom
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // relabel the base T-sub-blossom without stepping to its mate
            let bv = idx(j);
            self.label[self.endpoint[p ^ 1]] = 2;
            self.label[bv] = 2;
            self.labelend[self.endpoint[p ^ 1]] = p as i64;
            self.labelend[bv] = p as i64;
            self.bestedge[bv] = NONE;
            // continue along the blossom until back at entrychild
            j += jstep;
            while idx(j) != entrychild {
                let bv = idx(j);
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut vfound = usize::MAX;
                for lv in self.leaves(bv) {
                    if self.label[lv] != 0 {
                        vfound = lv;
                        break;
                    }
                }
                if vfound != usize::MAX {
                    debug_assert_eq!(self.label[vfound], 2);
                    debug_assert_eq!(self.inblossom[vfound], bv);
                    self.label[vfound] = 0;
                    let base = self.blossombase[bv] as usize;
                    self.label[self.endpoint[self.mate[base] as usize]] = 0;
                    let le = self.labelend[vfound];
                    self.assign_label(vfound, 2, le);
                }
                j += jstep;
            }
        }
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossomchilds[b] = None;
        self.blossomendps[b] = None;
        self.blossombase[b] = NONE;
        self.blossombestedges[b] = None;
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }

    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b as i64 {
            t = self.blossomparent[t] as usize;
        }
        if t >= self.n {
            self.augment_blossom(t, v);
        }
        let childs = self.blossomchilds[b].clone().expect("composite blossom has children");
        let endps = self.blossomendps[b].clone().expect("composite blossom has endpoints");
        let len = childs.len() as i64;
        let i = childs
            .iter()
            .position(|&c| c == t)
            .expect("t is a child of blossom b");
        let mut j = i as i64;
        let (jstep, endptrick): (i64, usize) = if j & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        let idx = |j: i64| -> usize { childs[(j.rem_euclid(len)) as usize] };
        let eidx = |j: i64| -> usize { endps[(j.rem_euclid(len)) as usize] };
        while j != 0 {
            j += jstep;
            let t = idx(j);
            let p = eidx(j - endptrick as i64) ^ endptrick;
            if t >= self.n {
                self.augment_blossom(t, self.endpoint[p]);
            }
            j += jstep;
            let t = idx(j);
            if t >= self.n {
                self.augment_blossom(t, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = (p ^ 1) as i64;
            self.mate[self.endpoint[p ^ 1]] = p as i64;
        }
        // rotate child lists so the new base is first
        let mut new_childs = childs[i..].to_vec();
        new_childs.extend_from_slice(&childs[..i]);
        let mut new_endps = endps[i..].to_vec();
        new_endps.extend_from_slice(&endps[..i]);
        self.blossombase[b] = self.blossombase[new_childs[0]];
        self.blossomchilds[b] = Some(new_childs);
        self.blossomendps[b] = Some(new_endps);
        debug_assert_eq!(self.blossombase[b] as usize, v);
    }

    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (s0, p0) in [(v, 2 * k + 1), (w, 2 * k)] {
            let mut s = s0;
            let mut p = p0;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs] as usize]);
                if bs >= self.n {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p as i64;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs] as usize];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] >= 0);
                s = self.endpoint[self.labelend[bt] as usize];
                let j = self.endpoint[(self.labelend[bt] as usize) ^ 1];
                debug_assert_eq!(self.blossombase[bt] as usize, t);
                if bt >= self.n {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = (self.labelend[bt] as usize) ^ 1;
            }
        }
    }

    fn run(&mut self) {
        let nedge = self.edges.len();
        for _stage in 0..self.n {
            self.label = vec![0; 2 * self.n];
            self.bestedge = vec![NONE; 2 * self.n];
            for i in self.n..2 * self.n {
                self.blossombestedges[i] = None;
            }
            self.allowedge = vec![false; nedge];
            self.queue.clear();
            for v in 0..self.n {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while let Some(v) = self.queue.pop() {
                    if augmented {
                        break;
                    }
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    for pi in 0..self.neighbend[v].len() {
                        let p = self.neighbend[v][pi];
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                self.assign_label(w, 2, (p ^ 1) as i64);
                            } else if self.label[self.inblossom[w]] == 1 {
                                let base = self.scan_blossom(v, w);
                                if base >= 0 {
                                    self.add_blossom(base as usize, k);
                                } else {
                                    self.augment_matching(k);
                                    augmented = true;
                                    break;
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = (p ^ 1) as i64;
                            }
                        } else if self.label[self.inblossom[w]] == 1 {
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE
                                || kslack < self.slack(self.bestedge[b] as usize)
                            {
                                self.bestedge[b] = k as i64;
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE
                                || kslack < self.slack(self.bestedge[w] as usize))
                        {
                            self.bestedge[w] = k as i64;
                        }
                    }
                    if augmented {
                        break;
                    }
                }
                if augmented {
                    break;
                }
                // dual update
                // type 1: minimum vertex dual (maxcardinality = false)
                let mut deltatype = 1i32;
                let mut delta = *self.dualvar[..self.n].iter().min().expect("n > 0: dual variables exist");
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                // type 2: free-vertex best edges
                for v in 0..self.n {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.slack(self.bestedge[v] as usize);
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                // type 3: S-blossom best edges
                for b in 0..2 * self.n {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.slack(self.bestedge[b] as usize);
                        let d = kslack / 2;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b];
                        }
                    }
                }
                // type 4: T-blossom duals
                for b in self.n..2 * self.n {
                    if self.blossombase[b] >= 0
                        && self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && (deltatype == -1 || self.dualvar[b] < delta)
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b as i64;
                    }
                }
                if deltatype == -1 {
                    deltatype = 1;
                    delta = self.dualvar[..self.n].iter().min().expect("n > 0: dual variables exist").max(&0).to_owned();
                }
                // apply delta
                for v in 0..self.n {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.n..2 * self.n {
                    if self.blossombase[b] >= 0 && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                match deltatype {
                    1 => break,
                    2 => {
                        let k = deltaedge as usize;
                        self.allowedge[k] = true;
                        let (mut i, j, _) = self.edges[k];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        let k = deltaedge as usize;
                        self.allowedge[k] = true;
                        let (i, _, _) = self.edges[k];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => {
                        self.expand_blossom(deltablossom as usize, false);
                    }
                    _ => unreachable!(),
                }
            }
            if !augmented {
                break;
            }
            // expand zero-dual S-blossoms at end of stage
            for b in self.n..2 * self.n {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] >= 0
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    fn brute_force_mwm(g: &Graph) -> u64 {
        let edges: Vec<(usize, usize, u64)> =
            g.edges().map(|(e, u, v)| (u, v, g.weight(e))).collect();
        let m = edges.len();
        let mut best = 0u64;
        'outer: for mask in 0u32..(1 << m) {
            let mut used = vec![false; g.n()];
            let mut w = 0u64;
            for (i, &(u, v, wt)) in edges.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    if used[u] || used[v] {
                        continue 'outer;
                    }
                    used[u] = true;
                    used[v] = true;
                    w += wt;
                }
            }
            best = best.max(w);
        }
        best
    }

    #[test]
    fn triangle_takes_heaviest_edge() {
        let g = gen::cycle(3).with_weights(vec![5, 3, 9]);
        let mate = maximum_weight_matching(&g);
        assert!(is_valid_matching(&g, &mate));
        assert_eq!(matching_weight(&g, &mate), 9);
    }

    #[test]
    fn path_weights() {
        // path 0-1-2-3 with weights 10, 1, 10: take the two end edges
        let g = gen::path(4).with_weights(vec![10, 1, 10]);
        let mate = maximum_weight_matching(&g);
        assert_eq!(matching_weight(&g, &mate), 20);
    }

    #[test]
    fn prefers_weight_over_cardinality() {
        // star-ish: center edge weight 100 beats two edges of weight 30
        let mut b = lcg_graph::GraphBuilder::new(4);
        b.add_edge(0, 1); // 100
        b.add_edge(0, 2); // 30
        b.add_edge(1, 3); // 30
        let g = b.build().with_weights(vec![100, 30, 30]);
        let mate = maximum_weight_matching(&g);
        assert_eq!(matching_weight(&g, &mate), 100);
    }

    #[test]
    fn odd_cycles_and_blossoms() {
        let mut rng = gen::seeded_rng(200);
        for n in [5usize, 7, 9] {
            let g = gen::random_weights(gen::cycle(n), 20, &mut rng);
            let mate = maximum_weight_matching(&g);
            assert!(is_valid_matching(&g, &mate));
            assert_eq!(matching_weight(&g, &mate), brute_force_mwm(&g), "C{n}");
        }
    }

    #[test]
    fn matches_brute_force_on_random_weighted_graphs() {
        let mut rng = gen::seeded_rng(201);
        for trial in 0..40 {
            let g = gen::random_weights(gen::gnm(9, 14, &mut rng), 30, &mut rng);
            let mate = maximum_weight_matching(&g);
            assert!(is_valid_matching(&g, &mate), "trial {trial}");
            assert_eq!(
                matching_weight(&g, &mate),
                brute_force_mwm(&g),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_dense_small() {
        let mut rng = gen::seeded_rng(202);
        for _ in 0..10 {
            let g = gen::random_weights(gen::complete(7), 50, &mut rng);
            let mate = maximum_weight_matching(&g);
            assert!(is_valid_matching(&g, &mate));
            assert_eq!(matching_weight(&g, &mate), brute_force_mwm(&g));
        }
    }

    #[test]
    fn uniform_weights_reduce_to_mcm() {
        let mut rng = gen::seeded_rng(203);
        for _ in 0..10 {
            let g = gen::gnm(12, 20, &mut rng);
            let mate = maximum_weight_matching(&g);
            let mcm = crate::matching::maximum_matching(&g);
            assert_eq!(
                matching_weight(&g, &mate) as usize,
                mcm.size(),
                "uniform-weight MWM must have MCM size"
            );
        }
    }

    #[test]
    fn greedy_is_half_approximate() {
        let mut rng = gen::seeded_rng(204);
        for _ in 0..10 {
            let g = gen::random_weights(gen::gnm(10, 18, &mut rng), 40, &mut rng);
            let greedy = matching_weight(&g, &greedy_mwm(&g));
            let opt = matching_weight(&g, &maximum_weight_matching(&g));
            assert!(2 * greedy >= opt);
            assert!(greedy <= opt);
        }
    }

    #[test]
    fn larger_planar_weighted_instance() {
        let mut rng = gen::seeded_rng(205);
        let g = gen::random_weights(gen::stacked_triangulation(120, &mut rng), 1000, &mut rng);
        let mate = maximum_weight_matching(&g);
        assert!(is_valid_matching(&g, &mate));
        let w = matching_weight(&g, &mate);
        let greedy = matching_weight(&g, &greedy_mwm(&g));
        assert!(w >= greedy);
    }

    #[test]
    fn empty_graph() {
        let g = lcg_graph::GraphBuilder::new(3).build();
        let mate = maximum_weight_matching(&g);
        assert_eq!(mate, vec![None, None, None]);
    }
}
