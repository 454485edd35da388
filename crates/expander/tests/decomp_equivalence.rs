//! The three thresholds of `decompose` are one recursion, and
//! `Threshold::Adaptive` keeps its contract: it returns, field for field,
//! the decomposition `Threshold::Fixed` computes at the threshold it
//! settled on, and every larger candidate threshold really exceeds the ε
//! budget ("the largest φ that fits"). The fingerprints at the bottom pin
//! the output on the repo benchmark's instance graphs in two parts, both
//! blessed from the division-per-non-zero power iteration: the structure — clustering, cut, exact and sweep certificates — bit for
//! bit, and the spectral estimates as decimals, so re-associating the
//! iteration's arithmetic may move the latter's last bits and nothing
//! else. Both hold at 1, 2 and 4 threads: a threaded decomposition returns,
//! field for field, what the sequential one does.

use lcg_congest::ExecConfig;
use lcg_expander::decomp::{decompose, ExpanderDecomposition, Threshold};
use lcg_graph::{gen, Graph};
use proptest::{prop_assert, proptest, ProptestConfig};

/// A decomposition with every `f64` read as its bits, so `==` is
/// field-for-field identity.
type Fields = (Vec<usize>, Vec<(Vec<usize>, [Option<u64>; 3])>, Vec<usize>, u64, u64);

fn fields(d: &ExpanderDecomposition) -> Fields {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let clusters = d
        .clusters
        .iter()
        .map(|c| (c.members.clone(), [bits(c.phi_exact), bits(c.phi_spectral_lower), bits(c.sweep_upper)]))
        .collect();
    (d.cluster_of.clone(), clusters, d.cut_edges.clone(), d.phi_cut.to_bits(), d.epsilon.to_bits())
}

fn sequential(g: &Graph, epsilon: f64, threshold: Threshold) -> ExpanderDecomposition {
    decompose(g, epsilon, threshold, ExecConfig::sequential())
}

/// The thresholds `Threshold::Adaptive` tries, in its order: ε/2 halved
/// down to `Threshold::WorstCase`'s φ, then that floor itself.
fn candidates(g: &Graph, epsilon: f64) -> Vec<f64> {
    let floor = sequential(g, epsilon, Threshold::WorstCase).phi_cut;
    let mut out = Vec::new();
    let mut phi = epsilon / 2.0;
    while phi >= floor {
        out.push(phi);
        phi /= 2.0;
    }
    out.push(floor);
    out
}

fn check_adaptive_contract(g: &Graph, epsilon: f64) -> Result<(), String> {
    let d = sequential(g, epsilon, Threshold::Adaptive);
    d.validate(g)?;
    let fresh = sequential(g, epsilon, Threshold::Fixed(d.phi_cut));
    if fields(&d) != fields(&fresh) {
        return Err(format!("adaptive differs from a fresh pass at phi = {}", d.phi_cut));
    }
    let tried = candidates(g, epsilon);
    if !tried.contains(&d.phi_cut) {
        return Err(format!("phi_cut {} is not a candidate threshold", d.phi_cut));
    }
    for &phi in tried.iter().take_while(|&&phi| phi > d.phi_cut) {
        let over = sequential(g, epsilon, Threshold::Fixed(phi));
        if g.m() == 0 || over.cut_edges.len() as f64 <= epsilon * g.m() as f64 {
            return Err(format!("phi = {phi} fits the budget but {} was chosen", d.phi_cut));
        }
    }
    if d.phi_cut == *tried.last().expect("the floor is always a candidate") {
        let worst_case = sequential(g, epsilon, Threshold::WorstCase);
        if fields(&d) != fields(&worst_case) {
            return Err("adaptive at the floor differs from the worst case".into());
        }
    }
    Ok(())
}

fn families() -> Vec<(&'static str, Graph)> {
    let mut rng = gen::seeded_rng(0xDEC0);
    let planar = gen::stacked_triangulation(120, &mut rng);
    vec![
        ("grid_with_noise", gen::grid_with_noise(14, 14, 0.02, &mut rng)),
        ("triangulated_grid", gen::triangulated_grid(9, 9)),
        ("shuffled triangulated_grid", gen::shuffle_vertices(&gen::triangulated_grid(8, 8), &mut rng)),
        ("stacked_triangulation", planar.clone()),
        ("weighted", gen::random_weights(planar.clone(), 1000, &mut rng)),
        ("labelled", gen::random_labels(planar, 0.5, &mut rng)),
        ("disconnected union", gen::grid(5, 5).disjoint_union(&gen::cycle(9)).disjoint_union(&gen::path(1))),
        ("random_planar", gen::random_planar(150, 0.6, &mut rng)),
        ("ktree", gen::ktree(100, 3, &mut rng)),
        ("series_parallel", gen::series_parallel(90, &mut rng)),
        ("random_tree", gen::random_tree(80, &mut rng)),
        ("hypercube", gen::hypercube(6)),
        ("dumbbell cliques", gen::disjoint_cliques(3, 7)),
        ("complete", gen::complete(16)),
        ("edgeless", lcg_graph::GraphBuilder::new(5).build()),
    ]
}

#[test]
fn adaptive_equals_a_fresh_pass_on_every_family() {
    for (name, g) in families() {
        for epsilon in [0.05, 0.1, 0.3, 0.6] {
            check_adaptive_contract(&g, epsilon).unwrap_or_else(|e| panic!("{name}, eps = {epsilon}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adaptive_equals_a_fresh_pass_on_random_graphs(
        seed in 0u64..1_000_000,
        n in 2usize..60,
        density in 1usize..4,
        eps_step in 1usize..8,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let m = (n * density).min(n * (n - 1) / 2);
        let g = gen::gnm(n, m, &mut rng);
        let outcome = check_adaptive_contract(&g, 0.08 * eps_step as f64);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(k, cut edges, fnv-1a over the structure)`: `cluster_of`, each cluster's
/// `Some`/`None` pattern with the bits of `phi_exact` (an enumeration) and
/// `sweep_upper` (a ratio of two integers: identical whenever the cut is),
/// `cut_edges` and `phi_cut`. `phi_spectral_lower` contributes only its
/// presence — its value is floating-point output of the power iteration and
/// is pinned as a decimal by [`assert_blessed`].
fn fingerprint(d: &ExpanderDecomposition) -> (usize, usize, u64) {
    let (cluster_of, clusters, cut_edges, phi_cut, _) = fields(d);
    let certificates = clusters.iter().flat_map(|(_, [exact, spectral, sweep])| {
        [exact.is_some() as u64, exact.unwrap_or(0), spectral.is_some() as u64, sweep.is_some() as u64, sweep.unwrap_or(0)]
    });
    let words = cluster_of
        .iter()
        .map(|&c| c as u64)
        .chain(certificates)
        .chain(cut_edges.iter().map(|&e| e as u64))
        .chain([phi_cut]);
    (d.k(), d.cut_edges.len(), fnv(words))
}

/// One benchmark instance: its structural [`fingerprint`] and, in cluster
/// order, the `phi_spectral_lower` of every cluster that reports one.
type Blessed = ((usize, usize, u64), &'static [f64]);

/// The structure bit for bit, the spectral estimates at 1e-9 relative.
fn assert_blessed(d: &ExpanderDecomposition, (structure, lowers): Blessed, what: &str) {
    assert_eq!(fingerprint(d), structure, "{what}");
    let got: Vec<f64> = d.clusters.iter().filter_map(|c| c.phi_spectral_lower).collect();
    assert_eq!(got.len(), lowers.len(), "{what}: clusters with a spectral estimate");
    for (i, (g, w)) in got.iter().zip(lowers).enumerate() {
        assert!((g - w).abs() <= 1e-9 * w.abs(), "{what}: spectral estimate {i} is {g:e}, blessed {w:e}");
    }
}

/// The repo benchmark's instance graphs are a function of the instance
/// index alone (`benchmark/src/workloads/mod.rs`, `Seeds::derive`).
fn benchmark_generator_seed(index: u64) -> u64 {
    let mut z = (0x5EED_0F7A_B1E5u64 ^ index).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// ε′ = ε / density of the benchmark's framework runs.
const EPS_PRIME: f64 = 0.3 / 3.0;

/// The adaptive decomposition at the benchmark's ε′, after checking that
/// it and the worst-case one come back field for field at 2 and 4 threads.
fn decompose_at_every_thread_count(g: &Graph, what: &str) -> ExpanderDecomposition {
    let [adaptive, _] = [Threshold::Adaptive, Threshold::WorstCase].map(|threshold| {
        let d = sequential(g, EPS_PRIME, threshold);
        for threads in [2, 4] {
            let threaded = decompose(g, EPS_PRIME, threshold, ExecConfig::with_threads(threads));
            assert!(fields(&threaded) == fields(&d), "{what}, {threshold:?}: {threads} threads differ from one");
        }
        d
    });
    adaptive
}

#[test]
fn gridnoise_instances_match_blessed_fingerprints() {
    let golden: [Blessed; 5] = [
        ((8, 243, 13_855_512_756_195_776_765), &[
            1.724834627642e-3, 2.328017910501e-3, 2.078802210030e-3, 4.578263444190e-3,
            4.741112156649e-3, 2.829651122542e-3, 1.967174676908e-3, 2.210951409044e-3,
        ]),
        ((9, 233, 989_795_331_034_831_200), &[
            3.855950993902e-3, 2.405711893301e-3, 3.084781965996e-3, 3.771499069479e-3, 5.349986859186e-3,
            3.502926781714e-3, 2.522633624849e-3, 4.586536705703e-3, 7.748358656587e-3,
        ]),
        ((8, 218, 15_547_947_534_658_342_853), &[
            4.086677111424e-3, 5.239296109605e-3, 2.300977582025e-3, 2.164962325008e-3,
            2.515272013567e-3, 1.804649098171e-3, 4.385234648262e-3, 5.039212834855e-3,
        ]),
        ((10, 256, 7_889_129_696_185_246_284), &[
            3.315866381734e-3, 6.396785755080e-3, 4.501369009079e-3, 3.857069152394e-3, 6.581431187656e-3,
            6.868204500406e-3, 3.045930643377e-3, 2.275676975809e-3, 4.247481048962e-3, 4.570319733878e-3,
        ]),
        ((13, 277, 5_789_146_545_796_268_463), &[
            8.256699464601e-3, 7.768649412853e-3, 3.079776883981e-3, 7.545003071012e-3, 7.867551787770e-3,
            2.871040932972e-3, 8.306864701091e-3, 8.296617925487e-3, 2.600318481671e-3, 7.609162784126e-3,
            6.709163302521e-3, 6.068067221570e-3, 5.798038883529e-3,
        ]),
    ];
    for (index, want) in golden.into_iter().enumerate() {
        let mut rng = gen::seeded_rng(benchmark_generator_seed(index as u64));
        let g = gen::grid_with_noise(50, 50, 0.02, &mut rng);
        let what = format!("framework-gridnoise instance {index}");
        assert_blessed(&decompose_at_every_thread_count(&g, &what), want, &what);
    }
}

#[test]
fn trigrid_instances_match_blessed_fingerprints() {
    let golden: [Blessed; 5] = [
        ((2, 31, 9_764_514_580_244_649_823), &[9.239465160520e-3, 9.239465177653e-3]),
        ((2, 31, 3_168_397_814_684_133_681), &[9.239464939822e-3, 9.239465165564e-3]),
        ((2, 31, 8_324_335_806_211_198_099), &[9.239465310935e-3, 9.239465147960e-3]),
        ((2, 31, 6_732_446_964_683_898_577), &[9.239465200222e-3, 9.239465344942e-3]),
        ((2, 31, 3_579_670_451_838_100_901), &[9.239465058317e-3, 9.239464929806e-3]),
    ];
    for (index, want) in golden.into_iter().enumerate() {
        let mut rng = gen::seeded_rng(benchmark_generator_seed(index as u64));
        let g = gen::shuffle_vertices(&gen::triangulated_grid(16, 16), &mut rng);
        let what = format!("apps-trigrid instance {index}");
        assert_blessed(&decompose_at_every_thread_count(&g, &what), want, &what);
    }
}
