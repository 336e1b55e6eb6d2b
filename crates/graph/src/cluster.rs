//! Cluster-preserving clustering (the Theorem B.3 substrate).
//!
//! Appendix B reduces decoding of the unique-list-recoverable code to the
//! following task: the layered graph `G` contains, for every heavy hitter,
//! an *η-spectral cluster* (Definition B.2) — a vertex set that is an
//! expander copy internally, with at most an η-fraction of its edge volume
//! leaving it — plus `O(α d M)` adversarial noise edges. Recover every such
//! cluster up to `O(η)` volume.
//!
//! We implement recursive spectral partitioning: split connected
//! components along Fiedler sweep cuts while a cut of conductance below a
//! threshold `φ` exists. Inside an honest cluster every cut has
//! conductance `≳ 1/2 − λ₀/d` (expander mixing lemma), while cuts along
//! cluster boundaries have conductance `O(η)`; any `φ` strictly between
//! separates, and the defaults leave a wide margin. This matches the
//! guarantee consumed by the decoder, which is why it can stand in for
//! \[22\]'s algorithm.

use crate::graph::Graph;
use crate::spectral::fiedler_embedding;
use hh_math::rng::derive_seed;

/// Tuning for [`spectral_clusters`].
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Split a component while it has a sweep cut of conductance below
    /// this threshold. Must separate intra-cluster conductance (≈ 0.3–0.5
    /// for the expanders used here) from inter-cluster conductance (O(η)).
    pub conductance_threshold: f64,
    /// Components smaller than this are emitted without further splitting.
    pub min_cluster_size: usize,
    /// Maximum recursion depth (safety valve; never reached on honest
    /// inputs).
    pub max_depth: usize,
    /// Seed for the power-iteration start vectors.
    pub seed: u64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self {
            // Measured internal sweep-cut conductance of the random
            // regular expanders used here: >= 0.13 at d = 4, >= 0.21 at
            // d = 6 (see exp_ablations AB.2). Boundary cuts in the
            // decoder's graphs sit at O(alpha) << 0.1.
            conductance_threshold: 0.1,
            min_cluster_size: 3,
            max_depth: 40,
            seed: 0x5EED_C1B5,
        }
    }
}

/// Find the minimum-conductance Fiedler sweep cut of `g`.
///
/// Returns `(set, conductance)` where `set` is the smaller-volume side; or
/// `None` for graphs with fewer than 2 vertices or no edges.
pub fn best_sweep_cut(g: &Graph, seed: u64) -> Option<(Vec<u32>, f64)> {
    let n = g.num_vertices();
    if n < 2 || g.num_edges() == 0 {
        return None;
    }
    let emb = fiedler_embedding(g, seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        emb[a as usize]
            .partial_cmp(&emb[b as usize])
            .expect("NaN in Fiedler embedding")
    });
    let total_vol = 2 * g.num_edges();
    let mut in_set = vec![false; n];
    let mut vol = 0usize;
    let mut boundary = 0usize;
    let mut best: Option<(usize, f64)> = None;
    for (idx, &v) in order.iter().enumerate().take(n - 1) {
        let deg = g.degree(v);
        let to_set = g
            .neighbors(v)
            .iter()
            .filter(|&&u| in_set[u as usize])
            .count();
        in_set[v as usize] = true;
        vol += deg;
        boundary = boundary + deg - 2 * to_set;
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            continue;
        }
        let phi = boundary as f64 / denom as f64;
        if best.is_none_or(|(_, b)| phi < b) {
            best = Some((idx, phi));
        }
    }
    let (cut_idx, phi) = best?;
    let side: Vec<u32> = order[..=cut_idx].to_vec();
    // Return the smaller-volume side for symmetry with conductance.
    let vol_side = g.volume(&side);
    if 2 * vol_side <= total_vol {
        Some((side, phi))
    } else {
        let comp: Vec<u32> = order[cut_idx + 1..].to_vec();
        Some((comp, phi))
    }
}

/// Recursive spectral partitioning into clusters (Theorem B.3 interface).
///
/// Output sets are disjoint, sorted internally, and cover every non-isolated
/// vertex. Isolated vertices are dropped (they carry no code information).
pub fn spectral_clusters(g: &Graph, params: &ClusterParams) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for comp in g.connected_components() {
        if comp.len() == 1 && g.degree(comp[0]) == 0 {
            continue; // isolated vertex
        }
        split_recursive(g, comp, params, 0, &mut out);
    }
    out
}

fn split_recursive(
    g: &Graph,
    vertices: Vec<u32>,
    params: &ClusterParams,
    depth: usize,
    out: &mut Vec<Vec<u32>>,
) {
    if vertices.len() <= params.min_cluster_size || depth >= params.max_depth {
        out.push(vertices);
        return;
    }
    let (sub, label_map) = g.induced(&vertices);
    let cut = best_sweep_cut(&sub, derive_seed(params.seed, depth as u64));
    match cut {
        Some((side, phi)) if phi < params.conductance_threshold && !side.is_empty() => {
            let in_side: std::collections::HashSet<u32> = side.iter().copied().collect();
            let (mut a, mut b): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
            for (local, &orig) in label_map.iter().enumerate() {
                if in_side.contains(&(local as u32)) {
                    a.push(orig);
                } else {
                    b.push(orig);
                }
            }
            if a.is_empty() || b.is_empty() {
                out.push(vertices);
                return;
            }
            // The two sides may themselves be disconnected after the cut;
            // recurse through component discovery again.
            for part in [a, b] {
                let (part_sub, part_map) = g.induced(&part);
                for comp in part_sub.connected_components() {
                    let orig: Vec<u32> = comp.iter().map(|&v| part_map[v as usize]).collect();
                    split_recursive(g, orig, params, depth + 1, out);
                }
            }
        }
        _ => out.push(vertices),
    }
}

/// Single-pass low-degree pruning: drop vertices of `set` whose degree
/// *within `set`* is at most `min_degree`. This is exactly the cleanup
/// step of Appendix B ("we remove any vertex from W′ of degree ≤ d/2");
/// a single pass is deliberate — iterating can cascade through an honest
/// cluster that has already lost a few coordinates to erasures.
pub fn prune_low_degree(g: &Graph, set: &[u32], min_degree: usize) -> Vec<u32> {
    let inside: std::collections::HashSet<u32> = set.iter().copied().collect();
    set.iter()
        .copied()
        .filter(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| inside.contains(&u))
                .count()
                > min_degree
        })
        .collect()
}

/// Iterative variant of [`prune_low_degree`]: repeat until fixpoint.
/// Stronger junk removal, but can cascade through damaged honest clusters
/// — use only when erasure rates are known to be tiny.
pub fn prune_low_degree_iterative(g: &Graph, set: &[u32], min_degree: usize) -> Vec<u32> {
    let mut current: Vec<u32> = set.to_vec();
    loop {
        let kept = prune_low_degree(g, &current, min_degree);
        if kept.len() == current.len() {
            return kept;
        }
        current = kept;
    }
}

/// Definition B.2 checker (sampled): verifies that `w` is an η-spectral
/// cluster of `g` against the boundary condition exactly and the subset
/// condition on `samples` random subsets plus all singletons.
///
/// A `false` answer is definitive for the tested subsets; `true` means "no
/// violation found" (the definition quantifies over all subsets).
pub fn is_eta_cluster_sampled(g: &Graph, w: &[u32], eta: f64, samples: usize, seed: u64) -> bool {
    use rand::Rng;
    let vol_w = g.volume(w) as f64;
    if vol_w == 0.0 {
        return false;
    }
    if g.boundary(w) as f64 > eta * vol_w {
        return false;
    }
    let mut rng = hh_math::rng::seeded_rng(seed);
    let check = |a: &[u32]| -> bool {
        let in_a: std::collections::HashSet<u32> = a.iter().copied().collect();
        let b: Vec<u32> = w.iter().copied().filter(|v| !in_a.contains(v)).collect();
        let r = g.volume(a) as f64 / vol_w;
        let cut = g.cut_edges(a, &b) as f64;
        cut >= (r * (1.0 - r) - eta) * vol_w - 1e-9
    };
    for &v in w {
        if !check(&[v]) {
            return false;
        }
    }
    // Fiedler sweep cuts of the induced subgraph. Subset-condition
    // violations are witnessed by sparse cuts of W, and uniform subset
    // sampling essentially never finds one (a planted half/half split is
    // hit with probability 2^-|W|); the sweep family contains a
    // near-minimum-conductance cut whenever one exists (Cheeger), so it
    // catches exactly the witnesses sampling misses.
    let (induced, verts) = g.induced(w);
    if verts.len() >= 3 && induced.num_edges() > 0 {
        let emb = fiedler_embedding(&induced, derive_seed(seed, 0xF1ED));
        let mut order: Vec<usize> = (0..verts.len()).collect();
        order.sort_by(|&a, &b| emb[a].total_cmp(&emb[b]));
        for cut in 1..order.len() {
            let a: Vec<u32> = order[..cut].iter().map(|&i| verts[i]).collect();
            if !check(&a) {
                return false;
            }
        }
    }
    for _ in 0..samples {
        let a: Vec<u32> = w.iter().copied().filter(|_| rng.gen::<bool>()).collect();
        if a.is_empty() || a.len() == w.len() {
            continue;
        }
        if !check(&a) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expander::expander;

    /// Disjoint union of `k` expander copies with `noise` random cross
    /// edges — the shape App. B's decoder feeds the clustering algorithm.
    fn planted_clusters(
        k: usize,
        m: usize,
        d: usize,
        noise: usize,
        seed: u64,
    ) -> (Graph, Vec<Vec<u32>>) {
        use rand::Rng;
        let base = expander(m, d, 2.3 * ((d - 1) as f64).sqrt(), seed);
        let mut g = Graph::new(k * m);
        let mut truth = Vec::new();
        for c in 0..k {
            let off = (c * m) as u32;
            for v in 0..m as u32 {
                for &u in base.neighbors(v as usize) {
                    if v < u {
                        g.add_edge(off + v, off + u);
                    }
                }
            }
            truth.push((off..off + m as u32).collect::<Vec<_>>());
        }
        let mut rng = hh_math::rng::seeded_rng(derive_seed(seed, 999));
        let mut added = 0usize;
        while added < noise {
            let a = rng.gen_range(0..(k * m) as u32);
            let b = rng.gen_range(0..(k * m) as u32);
            if a / m as u32 != b / m as u32 {
                g.add_edge(a, b);
                added += 1;
            }
        }
        (g, truth)
    }

    fn jaccard(a: &[u32], b: &[u32]) -> f64 {
        let sa: std::collections::HashSet<_> = a.iter().collect();
        let sb: std::collections::HashSet<_> = b.iter().collect();
        let inter = sa.intersection(&sb).count();
        inter as f64 / (sa.len() + sb.len() - inter) as f64
    }

    #[test]
    fn sweep_cut_finds_bottleneck() {
        // Two triangles joined by one edge.
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge(a, b);
        }
        let (side, phi) = best_sweep_cut(&g, 1).expect("cut exists");
        assert!(phi <= 1.0 / 7.0 + 1e-9, "conductance {phi}");
        let mut s = side.clone();
        s.sort_unstable();
        assert!(s == vec![0, 1, 2] || s == vec![3, 4, 5], "side {s:?}");
    }

    #[test]
    fn clusters_isolated_expanders_exactly() {
        let (g, truth) = planted_clusters(4, 24, 4, 0, 11);
        let found = spectral_clusters(&g, &ClusterParams::default());
        assert_eq!(found.len(), 4, "found {} clusters", found.len());
        for t in &truth {
            let best = found.iter().map(|f| jaccard(f, t)).fold(0.0f64, f64::max);
            assert!(best > 0.999, "cluster missed: jaccard {best}");
        }
    }

    #[test]
    fn clusters_survive_noise_edges() {
        // αdM-style noise: 10 cross edges against 4 copies of a 24-vertex
        // 4-regular expander (48 internal edges each).
        let (g, truth) = planted_clusters(4, 24, 4, 10, 13);
        let found = spectral_clusters(&g, &ClusterParams::default());
        for t in &truth {
            let best = found.iter().map(|f| jaccard(f, t)).fold(0.0f64, f64::max);
            assert!(best > 0.8, "cluster degraded: best jaccard {best}");
        }
    }

    #[test]
    fn expander_is_not_split() {
        // A single expander must come back as one cluster: all its cuts
        // have conductance far above the threshold.
        let e = expander(40, 6, 2.3 * 5f64.sqrt(), 17);
        let found = spectral_clusters(e.graph(), &ClusterParams::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].len(), 40);
    }

    #[test]
    fn prune_removes_dangling_vertices() {
        let mut g = Graph::new(5);
        // Triangle 0-1-2 plus pendant path 2-3-4.
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)] {
            g.add_edge(a, b);
        }
        // Single pass removes only vertex 4 (in-set degree 1).
        let kept = prune_low_degree(&g, &[0, 1, 2, 3, 4], 1);
        assert_eq!(kept, vec![0, 1, 2, 3]);
        // The iterative variant cascades: 4 drops, then 3.
        let kept_it = prune_low_degree_iterative(&g, &[0, 1, 2, 3, 4], 1);
        assert_eq!(kept_it, vec![0, 1, 2]);
        // min_degree 0 keeps everything with at least one in-set edge.
        let kept0 = prune_low_degree(&g, &[0, 1, 2, 3, 4], 0);
        assert_eq!(kept0.len(), 5);
    }

    #[test]
    fn eta_cluster_checker_accepts_expander_rejects_split() {
        let (g, truth) = planted_clusters(2, 24, 4, 4, 29);
        // An honest cluster passes with generous eta.
        assert!(is_eta_cluster_sampled(&g, &truth[0], 0.3, 200, 5));
        // The union of both clusters fails the subset condition: cutting
        // along the planted boundary gives far fewer than r(1-r)·vol edges.
        let both: Vec<u32> = (0..48).collect();
        assert!(!is_eta_cluster_sampled(&g, &both, 0.05, 200, 5));
    }

    #[test]
    fn covers_all_non_isolated_vertices() {
        let (g, _) = planted_clusters(3, 16, 4, 6, 31);
        let found = spectral_clusters(&g, &ClusterParams::default());
        let mut all: Vec<u32> = found.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 48, "clusters must partition the vertices");
    }
}
