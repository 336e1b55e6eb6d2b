//! The `(α, ℓ, L)`-unique-list-recoverable code of Theorem 3.6.
//!
//! Encoding (Appendix B): fix pairwise-independent hashes
//! `h_1, …, h_M : X → [Y]` and a d-regular expander `F` on `[M]`. Then
//!
//! ```text
//! Enc(x)_m   = ( h_m(x), E~nc(x)_m )
//! E~nc(x)_m  = ( rs(x)_m, h_{Γ(m)_1}(x), …, h_{Γ(m)_d}(x) )
//! ```
//!
//! where `rs(x)` is an outer Reed–Solomon codeword over the bits of `x`
//! and `Γ(m)_k` is the k-th expander neighbor of coordinate `m`. The
//! second component is packed into a single integer `z < Z` so protocol
//! layers can treat coordinates as elements of `[Y]×[Z]`.
//!
//! Decoding: lists `L_1, …, L_M` of `(y, z)` pairs (unique `y` per list)
//! induce a layered graph on `[M]×[Y]` — an edge is kept only when *both*
//! endpoints claim it, which is what defeats adversarial junk entries.
//! Every codeword present in `(1−α)M` lists forms an `O(α)`-spectral
//! cluster; spectral clustering plus low-degree pruning recovers the
//! clusters, and the Reed–Solomon decoder (missing coordinates = erasures)
//! recovers each codeword.

use crate::rs::ReedSolomon;
use hh_graph::cluster::{prune_low_degree, spectral_clusters, ClusterParams};
use hh_graph::expander::{expander, ExpanderGraph};
use hh_graph::Graph;
use hh_hash::family::labels;
use hh_hash::{HashFamily, PairwiseHash};

/// Parameters of a [`UniqueListCode`].
#[derive(Debug, Clone)]
pub struct UlrcParams {
    /// Number of coordinates `M` (outer-code block length).
    pub num_coords: usize,
    /// Range `Y` of the per-coordinate hashes.
    pub y_range: u64,
    /// Expander degree `d`.
    pub degree: usize,
    /// Outer-code symbol width in bits (`GF(2^gf_bits)` symbols).
    pub gf_bits: u32,
    /// Bits of the message domain `X` (codewords encode `x < 2^domain_bits`).
    pub domain_bits: u32,
    /// Advertised corruption tolerance `α`: every `x` whose encoding
    /// appears in at least `(1−α)M` lists must be recovered.
    pub alpha: f64,
    /// Clustering configuration for the decoder.
    pub cluster: ClusterParams,
}

impl UlrcParams {
    /// A practical default profile for a given message-domain width.
    ///
    /// `M` is chosen so the Reed–Solomon code has rate ≤ 1/2 (pure-erasure
    /// tolerance ≥ M/2, error-form tolerance ≥ M/4), mirroring the paper's
    /// constant-rate constant-distance outer code.
    pub fn for_domain_bits(domain_bits: u32) -> Self {
        let gf_bits = 4u32;
        let k = domain_bits.div_ceil(gf_bits) as usize;
        // Rate <= 1/2 and even M (expander needs d*M even for odd d; we
        // use even d, but keep M even anyway for symmetry with sweeps).
        let num_coords = (2 * k).clamp(8, 14).max(k + 4);
        assert!(
            num_coords <= 15,
            "domain of {domain_bits} bits needs block length > 15; use gf_bits = 5+"
        );
        Self {
            num_coords,
            y_range: 16,
            degree: 4,
            gf_bits,
            domain_bits,
            alpha: 0.25,
            cluster: ClusterParams::default(),
        }
    }

    /// Cardinality of the packed `z` component: `Z = 2^gf_bits · Y^d`.
    pub fn z_cardinality(&self) -> u64 {
        (1u64 << self.gf_bits) * self.y_range.pow(self.degree as u32)
    }
}

/// An instantiated unique-list-recoverable code (Theorem 3.6).
#[derive(Debug, Clone)]
pub struct UniqueListCode {
    params: UlrcParams,
    rs: ReedSolomon,
    graph: ExpanderGraph,
    hashes: Vec<PairwiseHash>,
    /// `symbol_tables[m · nibbles + j][v]`, with `nibbles` =
    /// `⌈domain_bits / 4⌉`: the contribution of a message whose only
    /// nonzero bits are nibble `j` of `x` (value `v`) to outer codeword
    /// symbol `m`. Symbol `m` is GF(2)-linear in the message bits, so it
    /// is the XOR of one entry per nibble of `x`.
    symbol_tables: Vec<[u16; 16]>,
    /// `neighbor_slot[m]` maps each neighbor `m'` of `m` to the slot index
    /// of `m` in `neighbors(m')` — the back-pointer used for mutual edge
    /// verification.
    neighbor_slot: Vec<Vec<usize>>,
}

impl UniqueListCode {
    /// Build the code from parameters and a public-randomness seed (which
    /// fixes the hashes `h_m` and the expander).
    pub fn new(params: UlrcParams, seed: u64) -> Self {
        let k = params.domain_bits.div_ceil(params.gf_bits) as usize;
        assert!(
            k <= params.num_coords,
            "domain ({} bits) does not fit: k = {k} > M = {}",
            params.domain_bits,
            params.num_coords
        );
        assert!(
            (params.num_coords * params.degree).is_multiple_of(2),
            "M*d must be even"
        );
        let max_alpha_erasures = (params.num_coords - k) as f64 / params.num_coords as f64;
        assert!(
            params.alpha <= max_alpha_erasures,
            "alpha = {} exceeds the outer code's erasure budget {max_alpha_erasures}",
            params.alpha
        );
        let rs = ReedSolomon::new(params.gf_bits, params.num_coords, k);
        let family = HashFamily::new(seed);
        let d = params.degree;
        let lambda0 = (2.3 * ((d - 1) as f64).sqrt()).min(d as f64 * 0.98);
        let graph = expander(
            params.num_coords,
            d,
            lambda0,
            family.component_seed(labels::EXPANDER, 0),
        );
        let hashes: Vec<PairwiseHash> = (0..params.num_coords as u64)
            .map(|m| family.pairwise(labels::SKETCH_COORD_HASH, m, params.y_range))
            .collect();
        let neighbor_slot = (0..params.num_coords)
            .map(|m| {
                graph
                    .neighbors(m)
                    .iter()
                    .map(|&mp| {
                        graph
                            .neighbors(mp as usize)
                            .iter()
                            .position(|&back| back as usize == m)
                            .expect("expander adjacency must be symmetric")
                    })
                    .collect()
            })
            .collect();
        let symbol_tables = symbol_tables(&rs, params.gf_bits, params.domain_bits);
        Self {
            params,
            rs,
            graph,
            hashes,
            symbol_tables,
            neighbor_slot,
        }
    }

    /// Code parameters.
    pub fn params(&self) -> &UlrcParams {
        &self.params
    }

    /// The underlying verified expander.
    pub fn expander(&self) -> &ExpanderGraph {
        &self.graph
    }

    /// `h_m(x)` — the coordinate hash (the `y` component of `Enc(x)_m`).
    pub fn coord_hash(&self, m: usize, x: u64) -> u64 {
        self.hashes[m].hash(x)
    }

    /// Outer codeword symbol `m` of `x`: one table entry per nibble of
    /// `x`, XORed — the value [`ReedSolomon::encode_at`] gives on `x`'s
    /// little-endian `gf_bits` digits.
    fn outer_symbol(&self, x: u64, m: usize) -> u16 {
        assert!(
            self.params.domain_bits == 64 || x < (1u64 << self.params.domain_bits),
            "x = {x} outside the {}-bit domain",
            self.params.domain_bits
        );
        let nibbles = self.params.domain_bits.div_ceil(4) as usize;
        let tables = &self.symbol_tables[m * nibbles..][..nibbles];
        tables
            .iter()
            .enumerate()
            .fold(0, |sym, (j, t)| sym ^ t[((x >> (4 * j)) & 0xF) as usize])
    }

    fn symbols_to_message(&self, syms: &[u16]) -> u64 {
        syms.iter().enumerate().fold(0u64, |acc, (i, &s)| {
            acc | (u64::from(s) << (i as u32 * self.params.gf_bits))
        })
    }

    /// Pack `(rs symbol, neighbor hash values)` into `z < Z`.
    pub fn pack_z(&self, sym: u16, neighbor_ys: &[u64]) -> u64 {
        debug_assert_eq!(neighbor_ys.len(), self.params.degree);
        self.pack_z_rev(sym, neighbor_ys.iter().rev().copied())
    }

    /// [`UniqueListCode::pack_z`] with the neighbor hash values supplied
    /// last neighbor first — the order the mixed-radix packing consumes.
    fn pack_z_rev(&self, sym: u16, ys_rev: impl Iterator<Item = u64>) -> u64 {
        let acc = ys_rev.fold(0u64, |acc, y| {
            debug_assert!(y < self.params.y_range);
            acc * self.params.y_range + y
        });
        (acc << self.params.gf_bits) | u64::from(sym)
    }

    /// Inverse of [`UniqueListCode::pack_z`].
    pub fn unpack_z(&self, z: u64) -> (u16, Vec<u64>) {
        let sym = (z & ((1u64 << self.params.gf_bits) - 1)) as u16;
        let mut acc = z >> self.params.gf_bits;
        let ys = (0..self.params.degree)
            .map(|_| {
                let y = acc % self.params.y_range;
                acc /= self.params.y_range;
                y
            })
            .collect();
        (sym, ys)
    }

    /// `E~nc(x)_m` packed as `z` (everything except the leading `h_m(x)`):
    /// the outer codeword's symbol `m` alone — a table lookup per nibble
    /// of `x` — packed with the neighbors' coordinate hashes, with no
    /// allocation.
    pub fn enc_tilde(&self, x: u64, m: usize) -> u64 {
        let sym = self.outer_symbol(x, m);
        let ys_rev = self.graph.neighbors(m).iter().rev();
        self.pack_z_rev(sym, ys_rev.map(|&mp| self.coord_hash(mp as usize, x)))
    }

    /// Full encoding `Enc(x) = ((h_1(x), z_1), …, (h_M(x), z_M))`.
    pub fn encode(&self, x: u64) -> Vec<(u64, u64)> {
        (0..self.params.num_coords)
            .map(|m| (self.coord_hash(m, x), self.enc_tilde(x, m)))
            .collect()
    }

    /// Decode lists `L_1, …, L_M` of `(y, z)` pairs.
    ///
    /// Entries with duplicate `y` within a list are dropped beyond the
    /// first (Definition 3.5 presumes `y`-uniqueness; the protocol's
    /// argmax step guarantees it). Returns the recovered messages, deduped,
    /// each verified to agree with its lists on `≥ (1−α)M` coordinates.
    pub fn decode(&self, lists: &[Vec<(u64, u64)>]) -> Vec<u64> {
        let m_coords = self.params.num_coords;
        assert_eq!(lists.len(), m_coords, "need one list per coordinate");
        let y_range = self.params.y_range;
        // Per-coordinate maps y -> z with first-entry-wins dedup.
        let mut entry: Vec<std::collections::HashMap<u64, u64>> =
            vec![std::collections::HashMap::new(); m_coords];
        for (m, list) in lists.iter().enumerate() {
            for &(y, z) in list {
                assert!(y < y_range, "list entry y = {y} out of range");
                assert!(z < self.params.z_cardinality(), "list entry z out of range");
                entry[m].entry(y).or_insert(z);
            }
        }
        // Layered graph on [M]×[Y]; edge kept iff both endpoints claim it.
        let vertex = |m: usize, y: u64| -> u32 { (m as u64 * y_range + y) as u32 };
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for m in 0..m_coords {
            for (&y, &z) in &entry[m] {
                let (_, neighbor_ys) = self.unpack_z(z);
                for (k, &yp) in neighbor_ys.iter().enumerate() {
                    let mp = self.graph.neighbor(m, k) as usize;
                    // Only add each undirected edge from the lower side.
                    if mp < m {
                        continue;
                    }
                    if let Some(&zp) = entry[mp].get(&yp) {
                        let (_, back_ys) = self.unpack_z(zp);
                        let back_slot = self.neighbor_slot[m][k];
                        if back_ys[back_slot] == y {
                            edges.push((vertex(m, y), vertex(mp, yp)));
                        }
                    }
                }
            }
        }
        let g = Graph::from_edges(m_coords * y_range as usize, edges);
        let clusters = spectral_clusters(&g, &self.params.cluster);
        let mut out: Vec<u64> = Vec::new();
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for cluster in clusters {
            let pruned = prune_low_degree(&g, &cluster, self.params.degree / 2);
            if pruned.is_empty() {
                continue;
            }
            // Assemble the received word: one symbol per coordinate, with
            // ambiguous/missing coordinates as erasures.
            let mut received: Vec<Option<u16>> = vec![None; m_coords];
            let mut ambiguous = vec![false; m_coords];
            for &v in &pruned {
                let m = (u64::from(v) / y_range) as usize;
                let y = u64::from(v) % y_range;
                if received[m].is_some() || ambiguous[m] {
                    received[m] = None;
                    ambiguous[m] = true;
                    continue;
                }
                if let Some(&z) = entry[m].get(&y) {
                    let (sym, _) = self.unpack_z(z);
                    received[m] = Some(sym);
                }
            }
            let Some(msg_syms) = self.rs.decode(&received) else {
                continue;
            };
            let x = self.symbols_to_message(&msg_syms);
            if self.params.domain_bits < 64 && x >= (1u64 << self.params.domain_bits) {
                continue;
            }
            if !seen.insert(x) {
                continue;
            }
            // Final Definition 3.5 filter: x must actually be present in
            // enough lists.
            let enc = self.encode(x);
            let hits = enc
                .iter()
                .enumerate()
                .filter(|(m, (y, z))| entry[*m].get(y) == Some(z))
                .count();
            if hits as f64 >= (1.0 - self.params.alpha) * m_coords as f64 {
                out.push(x);
            }
        }
        out
    }
}

/// The per-nibble symbol tables of [`UniqueListCode`], position-major:
/// entry `[m · nibbles + j][v]` is codeword symbol `m` of the message
/// whose bits are `v << 4j`. Each bit's column is one
/// [`ReedSolomon::encode_at`] of a unit digit; the other entries of a
/// nibble's table XOR one column onto an entry with fewer bits.
fn symbol_tables(rs: &ReedSolomon, gf_bits: u32, domain_bits: u32) -> Vec<[u16; 16]> {
    let (k, nibbles) = (rs.message_len(), domain_bits.div_ceil(4) as usize);
    let column = |bit: usize, m: usize| -> u16 {
        let (digit, shift) = (bit / gf_bits as usize, bit % gf_bits as usize);
        if digit >= k {
            return 0; // past the message: that bit of `x` is always 0
        }
        let unit = (0..k).map(|i| if i == digit { 1 << shift } else { 0 });
        rs.encode_at(unit, m)
    };
    let mut tables = vec![[0u16; 16]; rs.block_len() * nibbles];
    for m in 0..rs.block_len() {
        for (j, t) in tables[m * nibbles..][..nibbles].iter_mut().enumerate() {
            let columns: [u16; 4] = std::array::from_fn(|b| column(4 * j + b, m));
            for v in 1..16usize {
                t[v] = t[v & (v - 1)] ^ columns[v.trailing_zeros() as usize];
            }
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn code(domain_bits: u32, seed: u64) -> UniqueListCode {
        UniqueListCode::new(UlrcParams::for_domain_bits(domain_bits), seed)
    }

    /// A wide-Y profile for tests that decode many messages at once: the
    /// protocol's group hash `g` keeps messages-per-decode small (paper
    /// events E1/E5 need `Y ≳ |H^b|²`), so multi-message tests must widen
    /// `Y` accordingly to keep coordinate collisions within `α`.
    fn wide_code(domain_bits: u32, seed: u64) -> UniqueListCode {
        let mut params = UlrcParams::for_domain_bits(domain_bits);
        params.y_range = 128;
        UniqueListCode::new(params, seed)
    }

    /// Build honest lists for a set of messages, dropping coordinates where
    /// two messages collide on `y` (those are "bad" coordinates for both, as
    /// in the paper's analysis) and then corrupting `corrupt_per_x`
    /// coordinates of each message (removal). Returns the lists and the
    /// total number of dropped coordinates per message, so tests can check
    /// the Definition 3.5 contract against the *actual* corruption level.
    fn build_lists_with_drops(
        c: &UniqueListCode,
        xs: &[u64],
        corrupt_per_x: usize,
        rng: &mut SmallRng,
    ) -> (Vec<Vec<(u64, u64)>>, Vec<usize>) {
        let m_coords = c.params().num_coords;
        let mut drops: Vec<std::collections::HashSet<usize>> = xs
            .iter()
            .map(|_| {
                let mut s = std::collections::HashSet::new();
                while s.len() < corrupt_per_x {
                    s.insert(rng.gen_range(0..m_coords));
                }
                s
            })
            .collect();
        let mut lists: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m_coords];
        for (m, list) in lists.iter_mut().enumerate() {
            let mut used: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
            for (i, &x) in xs.iter().enumerate() {
                if drops[i].contains(&m) {
                    continue;
                }
                let y = c.coord_hash(m, x);
                if let Some(&other) = used.get(&y) {
                    // y-collision: coordinate becomes bad for both messages.
                    list.retain(|&(yy, _)| yy != y);
                    drops[other].insert(m);
                    drops[i].insert(m);
                    continue;
                }
                used.insert(y, i);
                list.push((y, c.enc_tilde(x, m)));
            }
        }
        let drop_counts = drops.iter().map(|s| s.len()).collect();
        (lists, drop_counts)
    }

    fn build_lists(
        c: &UniqueListCode,
        xs: &[u64],
        corrupt_per_x: usize,
        rng: &mut SmallRng,
    ) -> Vec<Vec<(u64, u64)>> {
        build_lists_with_drops(c, xs, corrupt_per_x, rng).0
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let c = code(24, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let sym = rng.gen_range(0..16u16);
            let ys: Vec<u64> = (0..c.params().degree)
                .map(|_| rng.gen_range(0..c.params().y_range))
                .collect();
            let z = c.pack_z(sym, &ys);
            assert!(z < c.params().z_cardinality());
            let (s2, ys2) = c.unpack_z(z);
            assert_eq!((sym, ys), (s2, ys2));
        }
    }

    #[test]
    fn encode_shape() {
        let c = code(24, 3);
        let enc = c.encode(0xABCDEF);
        assert_eq!(enc.len(), c.params().num_coords);
        for (m, &(y, z)) in enc.iter().enumerate() {
            assert!(y < c.params().y_range);
            assert!(z < c.params().z_cardinality());
            assert_eq!(y, c.coord_hash(m, 0xABCDEF));
        }
    }

    #[test]
    fn decodes_single_clean_message() {
        let c = code(24, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let xs = [0x00F00Du64];
        let lists = build_lists(&c, &xs, 0, &mut rng);
        let got = c.decode(&lists);
        assert_eq!(got, vec![0x00F00D]);
    }

    #[test]
    fn decodes_many_clean_messages() {
        let c = wide_code(24, 6);
        let mut rng = SmallRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..8).map(|_| rng.gen_range(0..1 << 24)).collect();
        let lists = build_lists(&c, &xs, 0, &mut rng);
        let mut got = c.decode(&lists);
        got.sort_unstable();
        let mut want = xs.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn narrow_y_handles_few_messages() {
        // The protocol-facing profile (Y = 16) is only asked to separate a
        // handful of messages per decode; verify that contract directly.
        let c = code(24, 61);
        // Seed-sensitive: with Y = 16, y-collisions can stack a message
        // past the α budget; the seed must leave margin.
        let mut rng = SmallRng::seed_from_u64(63);
        let xs: Vec<u64> = (0..3).map(|_| rng.gen_range(0..1 << 24)).collect();
        let lists = build_lists(&c, &xs, 0, &mut rng);
        let got = c.decode(&lists);
        for &x in &xs {
            assert!(got.contains(&x), "lost {x:#x} with narrow Y");
        }
    }

    #[test]
    fn recovers_despite_alpha_fraction_corruption() {
        let c = wide_code(24, 8);
        let m_coords = c.params().num_coords;
        let alpha_budget = (c.params().alpha * m_coords as f64).floor() as usize;
        let corrupt = (alpha_budget - 1).max(1);
        // Seed-sensitive: collisions on top of the injected corruption can
        // land a message exactly on the α boundary, where cluster assembly
        // has no slack; the seed must leave margin.
        let mut rng = SmallRng::seed_from_u64(10);
        let xs: Vec<u64> = (0..6).map(|_| rng.gen_range(0..1 << 24)).collect();
        let (lists, drops) = build_lists_with_drops(&c, &xs, corrupt, &mut rng);
        let got = c.decode(&lists);
        let mut in_contract = 0;
        for (i, &x) in xs.iter().enumerate() {
            // Definition 3.5 only promises recovery of messages present in
            // at least (1−α)M lists; collisions may push some past that.
            if drops[i] <= alpha_budget {
                in_contract += 1;
                assert!(
                    got.contains(&x),
                    "lost {x:#x} with {} <= {alpha_budget} drops",
                    drops[i]
                );
            }
        }
        assert!(
            in_contract >= 4,
            "test degenerated: only {in_contract} in contract"
        );
    }

    #[test]
    fn adversarial_junk_entries_do_not_create_codewords() {
        // Fill the lists with random junk that no honest encoder produced;
        // mutual-edge verification must reject it.
        let c = code(24, 10);
        let mut rng = SmallRng::seed_from_u64(11);
        let m_coords = c.params().num_coords;
        let mut lists: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m_coords];
        for list in lists.iter_mut() {
            let mut ys: std::collections::HashSet<u64> = std::collections::HashSet::new();
            while ys.len() < 8 {
                ys.insert(rng.gen_range(0..c.params().y_range));
            }
            for y in ys {
                list.push((y, rng.gen_range(0..c.params().z_cardinality())));
            }
        }
        let got = c.decode(&lists);
        assert!(got.is_empty(), "junk produced outputs: {got:?}");
    }

    #[test]
    fn honest_message_survives_surrounding_junk() {
        let c = code(24, 12);
        let mut rng = SmallRng::seed_from_u64(13);
        let x = 0x5A5A5Au64;
        let mut lists = build_lists(&c, &[x], 0, &mut rng);
        // Sprinkle junk entries with fresh y values.
        for (m, list) in lists.iter_mut().enumerate() {
            let honest_y = c.coord_hash(m, x);
            for _ in 0..6 {
                let y = rng.gen_range(0..c.params().y_range);
                if y != honest_y && !list.iter().any(|&(yy, _)| yy == y) {
                    list.push((y, rng.gen_range(0..c.params().z_cardinality())));
                }
            }
        }
        let got = c.decode(&lists);
        assert!(got.contains(&x), "honest message lost among junk");
    }

    #[test]
    fn duplicate_y_entries_are_deduped_not_fatal() {
        let c = code(24, 14);
        let mut rng = SmallRng::seed_from_u64(15);
        let x = 0x123456u64;
        let mut lists = build_lists(&c, &[x], 0, &mut rng);
        // Duplicate the honest entries with junk z under the same y: the
        // decoder keeps the first occurrence.
        for list in lists.iter_mut() {
            let dup: Vec<(u64, u64)> = list
                .iter()
                .map(|&(y, _)| (y, rng.gen_range(0..c.params().z_cardinality())))
                .collect();
            list.extend(dup);
        }
        let got = c.decode(&lists);
        assert!(got.contains(&x));
    }

    #[test]
    fn domain_bound_respected() {
        let c = code(16, 16);
        let enc = c.encode(0xFFFF);
        assert_eq!(enc.len(), c.params().num_coords);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn rejects_out_of_domain_message() {
        let c = code(16, 17);
        let _ = c.encode(0x1_0000);
    }

    /// Reference `E~nc(x)_m`, built the long way: the full outer
    /// codeword from test-local digits, then `pack_z` of its symbol `m`.
    fn reference_enc_tilde(c: &UniqueListCode, x: u64, m: usize) -> u64 {
        let p = c.params();
        let digits: Vec<u16> = (0..c.rs.message_len())
            .map(|i| ((x >> (i as u32 * p.gf_bits)) % (1 << p.gf_bits)) as u16)
            .collect();
        let cw = c.rs.encode(&digits);
        let ys: Vec<u64> = c
            .expander()
            .neighbors(m)
            .iter()
            .map(|&mp| c.coord_hash(mp as usize, x))
            .collect();
        c.pack_z(cw[m], &ys)
    }

    /// A code over `GF(2^gf_bits)` with `num_coords` coordinates.
    fn code_over(gf_bits: u32, domain_bits: u32, num_coords: usize, seed: u64) -> UniqueListCode {
        let mut params = UlrcParams::for_domain_bits(16);
        params.gf_bits = gf_bits;
        params.domain_bits = domain_bits;
        params.num_coords = num_coords;
        UniqueListCode::new(params, seed)
    }

    #[test]
    fn single_symbol_enc_tilde_equals_full_encode() {
        let mut rng = SmallRng::seed_from_u64(31);
        // The 4-bit profile at three domains, then every other field
        // width `Gf` supports (3..=8 bits), at domains that end inside a
        // digit and a nibble, up to 60 bits (the coordinate hashes take
        // inputs below 2^61 − 1).
        for (c, bits) in [
            (code(16, 30), 16u32),
            (wide_code(20, 32), 20),
            (code(24, 33), 24),
            (code_over(3, 9, 7, 35), 9),
            (code_over(5, 23, 12, 36), 23),
            (code_over(6, 30, 12, 37), 30),
            (code_over(7, 33, 14, 38), 33),
            (code_over(8, 40, 12, 39), 40),
            (code_over(8, 60, 16, 40), 60),
        ] {
            assert_eq!(c.params().domain_bits, bits);
            let top = u64::MAX >> (64 - bits);
            let mut xs = vec![0, top];
            xs.extend((0..50).map(|_| rng.gen_range(0..=top)));
            for &x in &xs {
                for m in 0..c.params().num_coords {
                    assert_eq!(c.enc_tilde(x, m), reference_enc_tilde(&c, x, m), "x = {x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn enc_tilde_rejects_out_of_domain_message() {
        let c = code(16, 34);
        let _ = c.enc_tilde(0x1_0000, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = code(24, 99);
        let b = code(24, 99);
        assert_eq!(a.encode(12345), b.encode(12345));
    }
}
