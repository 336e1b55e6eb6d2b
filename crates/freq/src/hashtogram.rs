//! `Hashtogram` — the frequency oracle of Theorems 3.7 and 3.8
//! (Bassily–Nissim–Stemmer–Thakurta, "Practical Locally Private Heavy
//! Hitters").
//!
//! Structure (count-median-sketch + Hadamard response):
//!
//! * Users are split into `R = Θ(log(1/β))` groups by a public hash.
//! * Group `r` holds a pairwise-independent bucket hash
//!   `h_r : X → [W]` (`W = Θ(√n)`, a power of two) and a ±1 sign hash
//!   `s_r` (count-sketch debiasing of bucket collisions).
//! * A user in group `r` with input `x` computes `b = h_r(x)`, draws
//!   `ℓ ~ U[W]`, and sends the single ε-randomized-response bit of
//!   `s_r(x)·H[ℓ, b]` together with `ℓ` — `1 + log W` bits, `O~(1)` time.
//! * The server accumulates debiased coefficients per group and applies
//!   one fast Walsh–Hadamard transform at finalization; a query takes the
//!   median across groups of the rescaled, sign-corrected bucket values.
//!
//! The **small-domain variant** (Theorem 3.8) sets `W >= |X|` with the
//! identity bucket map and no signs — collisions are impossible, memory is
//! `O~(|X|)`, and the error loses the `min{n, |X|}` union factor. That
//! variant is what `PrivateExpanderSketch` runs on the `[B]×[Y]×[Z]`
//! domain.
//!
//! Privacy: each user sends one bit through ε-RR (the pair `(ℓ, bit)` with
//! input-independent `ℓ`), hence the protocol is ε-LDP; the claim is
//! audited exactly in `hh-structure::audit` via
//! [`crate::randomizers::HadamardResponse`].

use crate::randomizers::BinaryRandomizedResponse;
use crate::traits::{Aggregator, FrequencyOracle, LocalRandomizer, RandomizerInput};
use crate::wire::{
    count_run_len, pack_row_bit, read_count_run, read_tally_run, read_uint, tally_run_len,
    uint_len, unpack_row_bit, varint_len, write_count_run, write_tally_run, write_uint,
    write_varint, FrameError, ShardReader, WireError, WireFrames, WireReport, WireShard,
};
use hh_hash::family::labels;
use hh_hash::{HashFamily, PairwiseHash, SignHash};
use hh_math::par::{par_map_owned, FinishScratch};
use hh_math::rng::derive_seed;
use hh_math::sampler::{ClientCoins, Uniform64};
use hh_math::stats::median_in_place;
use hh_math::wht::{fwht, fwht_threaded, hadamard_entry};
use rand::Rng;

/// Configuration of a [`Hashtogram`] oracle.
#[derive(Debug, Clone)]
pub struct HashtogramParams {
    /// Domain size `|X|` (elements are `0..domain`).
    pub domain: u64,
    /// Privacy parameter ε consumed by the single report.
    pub eps: f64,
    /// Number of user groups `R`.
    pub groups: usize,
    /// Buckets per group `W` (power of two).
    pub buckets: u64,
    /// `true` = Theorem 3.7 (hashed buckets + signs);
    /// `false` = Theorem 3.8 (identity buckets, requires `buckets >= domain`).
    pub hashed: bool,
}

impl HashtogramParams {
    /// Theorem 3.7 profile: `W = Θ(√n)`, `R = Θ(log(1/β))`.
    pub fn hashed(n: u64, domain: u64, eps: f64, beta: f64) -> Self {
        assert!(beta > 0.0 && beta < 1.0);
        let buckets = ((n as f64).sqrt().ceil() as u64)
            .next_power_of_two()
            .max(16);
        let groups = (((1.0 / beta).ln() / std::f64::consts::LN_2).ceil() as usize + 3) | 1;
        Self {
            domain,
            eps,
            groups,
            buckets,
            hashed: true,
        }
    }

    /// Theorem 3.8 profile: direct histogram over a small domain.
    pub fn direct(domain: u64, eps: f64, beta: f64) -> Self {
        assert!(beta > 0.0 && beta < 1.0);
        let buckets = domain.next_power_of_two().max(2);
        let groups = (((1.0 / beta).ln() / std::f64::consts::LN_2).ceil() as usize + 3) | 1;
        Self {
            domain,
            eps,
            groups,
            buckets,
            hashed: false,
        }
    }

    /// The high-probability per-query error bound implied by the
    /// parameters (the quantity Theorems 3.7/3.8 bound as
    /// `O((1/ε)√(n log(1/β)))`).
    ///
    /// Derivation: one group's rescaled estimate deviates by more than
    /// `D(p) = c_ε·sqrt(2·n·R·ln(2/p))` with probability at most `p`
    /// (Hoeffding over `n/R` reports of magnitude `c_ε`, times the `R`
    /// rescaling). The median over `R` groups fails only when `R/2`
    /// groups deviate, i.e. with probability `≤ (4p)^{R/2}`; solving for
    /// the caller's per-query budget gives `p = (β_q)^{2/R}/4` (or `β_q`
    /// itself when `R = 1`).
    pub fn error_bound(&self, n: u64, per_query_beta: f64) -> f64 {
        assert!(per_query_beta > 0.0 && per_query_beta < 1.0);
        let c_eps = (self.eps.exp() + 1.0) / (self.eps.exp() - 1.0);
        let r = self.groups as f64;
        let p = if self.groups == 1 {
            per_query_beta
        } else {
            (per_query_beta.powf(2.0 / r) / 4.0).min(0.25)
        };
        c_eps * (2.0 * n as f64 * r * (2.0 / p).ln()).sqrt()
    }
}

/// One user's report: the sampled Hadamard row and the randomized bit —
/// `1 + log2(W)` payload bits. The user's group is a pure function of
/// her index and the public randomness, so it is *not* part of the
/// report (the server recomputes it at ingest; see [`WireReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashtogramReport {
    /// Sampled Hadamard row `ℓ ∈ [W]`.
    pub ell: u64,
    /// Randomized response of `s_r(x)·H[ℓ, h_r(x)]`, as ±1.
    pub bit: i8,
}

/// Wire format: the `1 + log2(W)`-bit payload `ℓ·2 + [bit > 0]` as a
/// minimal little-endian integer — `report_bits().div_ceil(8)` bytes or
/// fewer.
impl WireReport for HashtogramReport {
    fn encoded_len(&self) -> usize {
        uint_len(pack_row_bit(self.ell, self.bit))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uint(out, pack_row_bit(self.ell, self.bit));
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (ell, bit) = unpack_row_bit(read_uint(bytes)?);
        Ok(HashtogramReport { ell, bit })
    }
}

/// Mergeable partial aggregate of a [`Hashtogram`]: flat
/// `groups × buckets` integer tallies plus per-group user counts.
/// Integer state merges by addition — exact and order-invariant.
#[derive(Debug, Clone)]
pub struct HashtogramShard {
    /// Row-major `groups × buckets` ±1 report tallies.
    tallies: Vec<i64>,
    /// Users seen per group.
    group_counts: Vec<u64>,
    /// Total users absorbed.
    users: u64,
}

/// Snapshot codec: `[users][group_counts run][tallies run]`, all
/// canonical varints (tallies zigzag-coded). The run lengths make the
/// frame self-describing, so recovery needs no protocol parameters.
impl WireShard for HashtogramShard {
    fn shard_encoded_len(&self) -> usize {
        varint_len(self.users) + count_run_len(&self.group_counts) + tally_run_len(&self.tallies)
    }

    fn encode_shard_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.users);
        write_count_run(out, &self.group_counts);
        write_tally_run(out, &self.tallies);
    }

    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ShardReader::new(bytes);
        let users = r.u64()?;
        let group_counts = read_count_run(&mut r)?;
        let tallies = read_tally_run(&mut r)?;
        r.finish()?;
        // No encoder produces groups without tallies or vice versa: a
        // real shard is `groups` rows of one fixed bucket width.
        let consistent = if group_counts.is_empty() {
            tallies.is_empty()
        } else {
            !tallies.is_empty() && tallies.len().is_multiple_of(group_counts.len())
        };
        if !consistent {
            return Err(WireError::Invalid("tally rows do not divide into groups"));
        }
        Ok(HashtogramShard {
            tallies,
            group_counts,
            users,
        })
    }
}

/// Exact encoded length of a buffered-report run — the
/// `[count]([ℓ·2+bit])…` layout the composite protocol shards
/// (`SketchShard`, `BitstogramShard`) use for per-coordinate report
/// buffers. Their inner oracles have one group, so a buffered report
/// carries no user index, and they buffer each report as its
/// [`pack_row_bit`] scalar `ℓ·2 + [bit > 0]` — the report's own wire
/// format, written here as a varint.
pub fn report_run_len(run: &[u64]) -> usize {
    varint_len(run.len() as u64) + run.iter().map(|&v| varint_len(v)).sum::<usize>()
}

/// Append a buffered-report run (see [`report_run_len`]).
pub fn write_report_run(out: &mut Vec<u8>, run: &[u64]) {
    write_varint(out, run.len() as u64);
    for &v in run {
        write_varint(out, v);
    }
}

/// Read a buffered-report run (see [`report_run_len`]).
pub fn read_report_run(r: &mut ShardReader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

/// The Hashtogram oracle: public randomness + server sketch state.
#[derive(Debug, Clone)]
pub struct Hashtogram {
    params: HashtogramParams,
    family: HashFamily,
    bucket_hashes: Vec<PairwiseHash>,
    sign_hashes: Vec<SignHash>,
    rr: BinaryRandomizedResponse,
    /// Hoisted row kernel drawing `ℓ ~ U[W]`; `W` is a power of two, so
    /// the draw is the top bits of one coin word and never rejects.
    row: Uniform64,
    /// Per-group ±1 report tallies over Hadamard rows (before finalize).
    ///
    /// Integers, not debiased floats: integer addition is associative, so
    /// ingesting reports in *any* order — including merging sharded
    /// partial tallies absorbed in parallel — leaves bit-for-bit
    /// identical state. The debias factor is a constant multiplier and is
    /// applied once at finalization.
    tallies: Vec<Vec<i64>>,
    /// Per-group bucket estimates (populated by finalize).
    acc: Vec<Vec<f64>>,
    /// Users seen per group.
    group_counts: Vec<u64>,
    total_users: u64,
    finalized: bool,
}

impl Hashtogram {
    /// Instantiate from parameters and a public-randomness seed.
    pub fn new(params: HashtogramParams, seed: u64) -> Self {
        assert!(params.buckets.is_power_of_two(), "W must be a power of two");
        assert!(params.groups >= 1);
        if !params.hashed {
            assert!(
                params.buckets >= params.domain,
                "direct variant needs W >= |X| ({} < {})",
                params.buckets,
                params.domain
            );
        }
        let family = HashFamily::new(seed);
        let bucket_hashes = (0..params.groups as u64)
            .map(|r| family.pairwise(labels::HASHTOGRAM_BUCKET, r, params.buckets))
            .collect();
        let sign_hashes = (0..params.groups as u64)
            .map(|r| family.sign(labels::HASHTOGRAM_BUCKET + 1000, r))
            .collect();
        let rr = BinaryRandomizedResponse::new(params.eps);
        let row = Uniform64::new(params.buckets);
        let tallies = vec![vec![0i64; params.buckets as usize]; params.groups];
        let group_counts = vec![0; params.groups];
        Self {
            params,
            family,
            bucket_hashes,
            sign_hashes,
            rr,
            row,
            tallies,
            acc: Vec::new(),
            group_counts,
            total_users: 0,
            finalized: false,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &HashtogramParams {
        &self.params
    }

    /// The derivation seed of the public group assignment (hoistable by
    /// batch paths; one value per oracle instance).
    fn assignment_seed(&self) -> u64 {
        self.family.component_seed(labels::HASHTOGRAM_ASSIGN, 0)
    }

    /// The group of `user_index` under a hoisted assignment seed — the
    /// single definition both [`Hashtogram::group_of`] and the batch
    /// paths go through, so they cannot diverge.
    fn group_at(assignment_seed: u64, user_index: u64, groups: u64) -> u32 {
        (derive_seed(assignment_seed, user_index) % groups) as u32
    }

    /// The public group assignment of a user (uniform via seed mixing).
    pub fn group_of(&self, user_index: u64) -> u32 {
        Self::group_at(
            self.assignment_seed(),
            user_index,
            self.params.groups as u64,
        )
    }

    /// Bucket of `x` in group `r`.
    pub fn bucket(&self, r: u32, x: u64) -> u64 {
        if self.params.hashed {
            self.bucket_hashes[r as usize].hash(x)
        } else {
            x
        }
    }

    /// Sign of `x` in group `r` (always +1 in the direct variant).
    pub fn sign(&self, r: u32, x: u64) -> i64 {
        if self.params.hashed {
            self.sign_hashes[r as usize].sign(x)
        } else {
            1
        }
    }

    /// Number of users ingested so far.
    pub fn total_users(&self) -> u64 {
        self.total_users
    }

    /// The randomizer a single user runs, for auditing: the report is one
    /// ε-RR bit over an input-independent row choice.
    pub fn randomizer(&self) -> crate::randomizers::HadamardResponse {
        crate::randomizers::HadamardResponse::new(self.params.buckets, self.params.eps)
    }

    /// The per-user draw body shared by the scalar
    /// [`Aggregator::respond`] and the fused
    /// [`Aggregator::respond_encode_batch`]:
    /// one coin word for the Hadamard row (via the hoisted `row` kernel;
    /// `W` is a power of two, so the draw never rejects) and one ε-RR
    /// bit through the binary word kernel. Both entry points consume
    /// identical coin words, so serial and fused runs agree bit for bit.
    fn respond_with<R: Rng + ?Sized>(&self, group: u32, x: u64, rng: &mut R) -> HashtogramReport {
        assert!(x < self.params.domain, "input {x} outside domain");
        let b = self.bucket(group, x);
        let s = self.sign(group, x);
        let ell = self.row.sample(rng);
        let true_pm = i64::from(hadamard_entry(ell, b)) * s;
        let true_bit = u64::from(true_pm > 0);
        let sent = self.rr.sample(RandomizerInput::Value(true_bit), rng);
        HashtogramReport {
            ell,
            bit: if sent == 1 { 1 } else { -1 },
        }
    }

    /// The hoisted zero-copy ingester: assignment seed and shapes derived
    /// once per batch. Shared by this oracle's own wire path and by the
    /// composite protocols that wrap it (`ExpanderSketch` / `Bitstogram`
    /// outer halves), so their per-report folds cannot drift from this
    /// oracle's [`Aggregator::absorb_wire`].
    pub fn absorber(&self) -> HashtogramAbsorber {
        HashtogramAbsorber {
            assign_seed: self.assignment_seed(),
            groups: self.params.groups as u64,
            buckets: self.params.buckets as usize,
        }
    }

    /// The randomized-response debias constant `c_ε = (e^ε+1)/(e^ε−1)`
    /// that [`FrequencyOracle::finalize`] multiplies into every tally
    /// cell — read-only, for decoders that transform the exact integer
    /// tallies themselves and debias only the cells they keep.
    pub fn debias_factor(&self) -> f64 {
        self.rr.debias_factor()
    }

    /// [`FrequencyOracle::estimate`] using a caller-owned workspace —
    /// the length-1 case of [`Hashtogram::estimate_run`], so point
    /// queries and sweeps share one estimate definition.
    pub fn estimate_into(&self, x: u64, buf: &mut Vec<f64>) -> f64 {
        let mut out = [0.0];
        self.estimate_run(x, &mut out, buf);
        out[0]
    }

    /// Estimates of the contiguous run `start..start + out.len()`, in
    /// order — bit-for-bit [`FrequencyOracle::estimate`] at each `x`,
    /// the sweep the domain-scanning decoders drive. `tile` is reusable
    /// workspace (a pooled [`FinishScratch`] buffer on the finish path).
    ///
    /// The run is swept `SWEEP_TILE` (256) elements at a time, group-major:
    /// for each group, stepped bucket indices and signs
    /// ([`PairwiseHash::hash_run`], [`SignHash::sign_run`]) fill that
    /// group's column of the tile, then each `x` takes the median of its
    /// row. Per-group values use the per-query expression in the same
    /// order, so every `f64` matches the point query's.
    pub fn estimate_run(&self, start: u64, out: &mut [f64], tile: &mut Vec<f64>) {
        assert!(self.finalized, "estimate before finalize");
        assert!(
            start
                .checked_add(out.len() as u64)
                .is_some_and(|end| end <= self.params.domain),
            "run {start}+{} outside domain",
            out.len()
        );
        let groups = self.params.groups;
        let n = self.total_users as f64;
        tile.clear();
        tile.resize(groups * out.len().min(SWEEP_TILE), 0.0);
        for (t, chunk) in out.chunks_mut(SWEEP_TILE).enumerate() {
            let x0 = start + (t * SWEEP_TILE) as u64;
            let len = chunk.len();
            let tile = &mut tile[..len * groups];
            for r in 0..groups {
                // Rescale the group subsample to the full population.
                let scale = n / self.group_counts[r].max(1) as f64;
                let column = tile[r..].iter_mut().step_by(groups);
                if self.params.hashed {
                    let buckets = self.bucket_hashes[r].hash_run(x0, len);
                    let signs = self.sign_hashes[r].sign_run(x0, len);
                    fill_column(column, &self.acc[r], scale, buckets, signs);
                } else {
                    let signs = std::iter::repeat(1);
                    fill_column(column, &self.acc[r], scale, x0.., signs);
                }
            }
            for (est, row) in chunk.iter_mut().zip(tile.chunks_exact_mut(groups)) {
                *est = median_in_place(row);
            }
        }
    }
}

/// Domain elements per tile of [`Hashtogram::estimate_run`]: the
/// `groups × SWEEP_TILE` values of a tile (18 KiB at `R = 9`) stay in
/// L1 from the column fills to the row medians.
const SWEEP_TILE: usize = 256;

/// One group's column of an [`Hashtogram::estimate_run`] tile: the
/// sign-corrected bucket value rescaled to the population,
/// `(acc[b]·s)·(n/m)`.
#[inline]
fn fill_column<'a>(
    column: impl Iterator<Item = &'a mut f64>,
    acc: &[f64],
    scale: f64,
    buckets: impl Iterator<Item = u64>,
    signs: impl Iterator<Item = i64>,
) {
    for ((cell, b), s) in column.zip(buckets).zip(signs) {
        *cell = (acc[b as usize] * s as f64) * scale;
    }
}

/// Hoisted per-report shard ingester for [`Hashtogram`] reports (see
/// [`Hashtogram::absorber`]): validates the row and folds the ±1 tally
/// into the right `(group, row)` cell.
#[derive(Debug, Clone, Copy)]
pub struct HashtogramAbsorber {
    assign_seed: u64,
    groups: u64,
    buckets: usize,
}

impl HashtogramAbsorber {
    /// Fold one report for `user_index` into `shard`. `Err` when the
    /// row index is outside `W` — a corrupt frame would otherwise alias
    /// into a *neighboring group's* row of the flat tally.
    pub fn absorb_one(
        &self,
        shard: &mut HashtogramShard,
        user_index: u64,
        rep: HashtogramReport,
    ) -> Result<(), WireError> {
        if rep.ell as usize >= self.buckets {
            return Err(WireError::Invalid("report row outside W"));
        }
        let g = Hashtogram::group_at(self.assign_seed, user_index, self.groups) as usize;
        shard.tallies[g * self.buckets + rep.ell as usize] += i64::from(rep.bit);
        shard.group_counts[g] += 1;
        shard.users += 1;
        Ok(())
    }
}

impl Aggregator for Hashtogram {
    type Report = HashtogramReport;
    type Shard = HashtogramShard;

    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> HashtogramReport {
        self.respond_with(self.group_of(user_index), x, rng)
    }

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        // Fused: the scalar path's per-user draws, written straight to
        // the wire — no intermediate report vec. The group-assignment
        // component seed is hoisted out of the loop (it costs two
        // SplitMix hops per user in the scalar path).
        let assign_seed = self.assignment_seed();
        let groups = self.params.groups as u64;
        let coins = ClientCoins::new(client_seed);
        let mut lens = Vec::with_capacity(xs.len());
        for (k, &x) in xs.iter().enumerate() {
            let i = start_index + k as u64;
            let mut rng = coins.user(i);
            let rep = self.respond_with(Self::group_at(assign_seed, i, groups), x, &mut rng);
            let before = out.len();
            rep.encode_into(out);
            lens.push((out.len() - before) as u32);
        }
        lens
    }

    fn collect(&mut self, user_index: u64, report: HashtogramReport) {
        assert!(!self.finalized, "collect after finalize");
        let group = self.group_of(user_index) as usize;
        self.tallies[group][report.ell as usize] += i64::from(report.bit);
        self.group_counts[group] += 1;
        self.total_users += 1;
    }

    fn new_shard(&self) -> HashtogramShard {
        HashtogramShard {
            tallies: vec![0i64; self.params.groups * self.params.buckets as usize],
            group_counts: vec![0u64; self.params.groups],
            users: 0,
        }
    }

    fn absorb_wire(
        &self,
        shard: &mut HashtogramShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        let absorber = self.absorber();
        for (k, frame) in frames.iter().enumerate() {
            let rep = HashtogramReport::decode(frame).map_err(|e| frames.frame_error(k, e))?;
            absorber
                .absorb_one(shard, start_index + k as u64, rep)
                .map_err(|e| frames.frame_error(k, e))?;
        }
        Ok(())
    }

    fn merge(&self, mut a: HashtogramShard, b: HashtogramShard) -> HashtogramShard {
        // Hard check: decoded snapshots carry no protocol parameters, so
        // a shard from a mismatched configuration must fail loudly here,
        // never zip-truncate into a silently wrong aggregate.
        assert_eq!(a.tallies.len(), b.tallies.len(), "shard shape mismatch");
        assert_eq!(
            a.group_counts.len(),
            b.group_counts.len(),
            "shard shape mismatch"
        );
        for (acc, add) in a.tallies.iter_mut().zip(&b.tallies) {
            *acc += add;
        }
        for (acc, add) in a.group_counts.iter_mut().zip(&b.group_counts) {
            *acc += add;
        }
        a.users += b.users;
        a
    }

    fn finish_shard(&mut self, shard: HashtogramShard) {
        assert!(!self.finalized, "collect after finalize");
        let buckets = self.params.buckets as usize;
        assert_eq!(
            shard.tallies.len(),
            self.params.groups * buckets,
            "shard shape mismatch"
        );
        assert_eq!(
            shard.group_counts.len(),
            self.params.groups,
            "shard shape mismatch"
        );
        for (g, row) in self.tallies.iter_mut().enumerate() {
            for (acc, add) in row
                .iter_mut()
                .zip(&shard.tallies[g * buckets..(g + 1) * buckets])
            {
                *acc += add;
            }
            self.group_counts[g] += shard.group_counts[g];
        }
        self.total_users += shard.users;
    }

    fn report_bits(&self) -> usize {
        1 + (self.params.buckets.trailing_zeros() as usize)
    }

    fn memory_bytes(&self) -> usize {
        self.params.groups * self.params.buckets as usize * std::mem::size_of::<f64>()
    }

    fn epsilon(&self) -> f64 {
        self.params.eps
    }
}

impl FrequencyOracle for Hashtogram {
    fn finalize(&mut self) {
        assert!(!self.finalized, "double finalize");
        let c = self.rr.debias_factor();
        self.acc = self
            .tallies
            .iter()
            .map(|row| {
                // Debias once per cell (constant multiplier over the exact
                // integer tally), then the WHT turns accumulated
                // coefficients into per-bucket sums: each user contributes
                // (in expectation) W * (1/W) * 1 to her bucket via the
                // orthogonality of Hadamard rows.
                let mut out: Vec<f64> = row.iter().map(|&t| c * t as f64).collect();
                fwht(&mut out);
                out
            })
            .collect();
        self.tallies = Vec::new();
        self.finalized = true;
    }

    fn finalize_with(&mut self, scratch: &mut FinishScratch) {
        assert!(!self.finalized, "double finalize");
        let c = self.rr.debias_factor();
        let threads = scratch.threads;
        let rows = std::mem::take(&mut self.tallies);
        self.acc = if rows.len() <= 1 {
            // One row: the only parallelism available is inside the
            // transform itself — the blocked WHT kernel.
            rows.into_iter()
                .map(|row| {
                    let mut out: Vec<f64> = row.iter().map(|&t| c * t as f64).collect();
                    fwht_threaded(&mut out, threads);
                    out
                })
                .collect()
        } else {
            // One row per group; rows are independent, results come back
            // in row order — the debias + WHT per row is the serial
            // kernel, so the output is bit-for-bit `finalize()`'s.
            par_map_owned(rows, threads, |_, row| {
                let mut out: Vec<f64> = row.iter().map(|&t| c * t as f64).collect();
                fwht(&mut out);
                out
            })
        };
        self.finalized = true;
    }

    fn estimate(&self, x: u64) -> f64 {
        let mut buf = Vec::with_capacity(self.params.groups);
        self.estimate_into(x, &mut buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_math::rng::seeded_rng;

    /// Run the full protocol on a dataset and return the oracle.
    fn run(params: HashtogramParams, data: &[u64], seed: u64) -> Hashtogram {
        let mut oracle = Hashtogram::new(params, seed);
        let mut rng = seeded_rng(seed ^ 0x0BAC_CA0F);
        for (i, &x) in data.iter().enumerate() {
            let rep = oracle.respond(i as u64, x, &mut rng);
            oracle.collect(i as u64, rep);
        }
        oracle.finalize();
        oracle
    }

    fn planted_data(n: usize, domain: u64, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for &(x, frac) in heavy {
                    acc += frac;
                    if u < acc {
                        return x;
                    }
                }
                rng.gen_range(0..domain)
            })
            .collect()
    }

    #[test]
    fn direct_variant_estimates_counts() {
        let n = 20_000usize;
        let domain = 64u64;
        let data = planted_data(n, domain, &[(7, 0.3), (42, 0.1)], 1);
        let true7 = data.iter().filter(|&&x| x == 7).count() as f64;
        let true42 = data.iter().filter(|&&x| x == 42).count() as f64;
        let oracle = run(HashtogramParams::direct(domain, 1.0, 0.05), &data, 2);
        let tol = oracle.params().error_bound(n as u64, 0.01);
        assert!(tol < n as f64 * 0.5, "bound uselessly large: {tol}");
        assert!(
            (oracle.estimate(7) - true7).abs() < tol,
            "est {} vs {true7} (tol {tol})",
            oracle.estimate(7)
        );
        assert!((oracle.estimate(42) - true42).abs() < tol);
        assert!(
            (oracle.estimate(13) - data.iter().filter(|&&x| x == 13).count() as f64).abs() < tol
        );
    }

    #[test]
    fn hashed_variant_estimates_counts_large_domain() {
        let n = 40_000usize;
        let domain = 1u64 << 40;
        let hx = 0x23_4567_89ABu64; // fits in 38 bits
        let data = planted_data(n, domain, &[(hx, 0.25)], 3);
        let truth = data.iter().filter(|&&x| x == hx).count() as f64;
        let oracle = run(
            HashtogramParams::hashed(n as u64, domain, 1.0, 0.05),
            &data,
            4,
        );
        let tol = oracle.params().error_bound(n as u64, 0.01);
        let est = oracle.estimate(hx);
        assert!(
            (est - truth).abs() < tol,
            "est {est} vs {truth} (tol {tol})"
        );
        // A random absent element estimates near zero.
        let est0 = oracle.estimate(999_999_999);
        assert!(est0.abs() < tol, "absent element estimate {est0}");
    }

    #[test]
    fn estimates_are_not_systematically_biased() {
        // Average the estimator over protocol randomness: should approach
        // the true count (sign hashes cancel collision mass).
        let n = 4_000usize;
        let domain = 1u64 << 20;
        let data = planted_data(n, domain, &[(77, 0.2)], 5);
        let truth = data.iter().filter(|&&x| x == 77).count() as f64;
        let trials = 30;
        let mut sum = 0.0;
        for t in 0..trials {
            let oracle = run(
                HashtogramParams::hashed(n as u64, domain, 1.0, 0.1),
                &data,
                100 + t,
            );
            sum += oracle.estimate(77);
        }
        let mean = sum / trials as f64;
        // Medians are only approximately unbiased; allow a generous band.
        assert!(
            (mean - truth).abs() < 0.25 * truth,
            "mean estimate {mean} vs truth {truth}"
        );
    }

    #[test]
    fn error_scales_like_sqrt_n() {
        // Measure the median (over seeds) of the max query error at two
        // values of n; the ratio should be ~sqrt(4) = 2, certainly below 4
        // (a single run is too noisy — heavy-element bucket collisions in
        // a minority of groups fatten the max).
        let domain = 1u64 << 16;
        let mut errs = Vec::new();
        for &n in &[4_000usize, 16_000] {
            let mut trial_errs = Vec::new();
            for t in 0..5u64 {
                let data = planted_data(n, domain, &[(5, 0.2), (9, 0.1)], 7 + t);
                let oracle = run(
                    HashtogramParams::hashed(n as u64, domain, 1.0, 0.05),
                    &data,
                    8 + 31 * t,
                );
                let mut max_err = 0.0f64;
                for q in [5u64, 9, 100, 2000] {
                    let truth = data.iter().filter(|&&x| x == q).count() as f64;
                    max_err = max_err.max((oracle.estimate(q) - truth).abs());
                }
                trial_errs.push(max_err.max(1.0));
            }
            errs.push(hh_math::stats::median(&trial_errs));
        }
        assert!(
            errs[1] / errs[0] < 4.0,
            "error grew faster than sqrt(n): {errs:?}"
        );
    }

    #[test]
    fn report_fits_claimed_bits() {
        let oracle = Hashtogram::new(HashtogramParams::direct(64, 1.0, 0.1), 9);
        let mut rng = seeded_rng(10);
        let rep = oracle.respond(0, 5, &mut rng);
        assert!(rep.ell < 64);
        assert!(rep.bit == 1 || rep.bit == -1);
        assert_eq!(oracle.report_bits(), 1 + 6);
        // The wire encoding honors the claim up to byte alignment.
        assert!(rep.encoded_len() <= oracle.report_bits().div_ceil(8));
        assert_eq!(HashtogramReport::decode(&rep.encode()), Ok(rep));
    }

    #[test]
    fn shard_path_matches_serial_collect() {
        let n = 4_000u64;
        let params = HashtogramParams::hashed(n, 1 << 20, 1.0, 0.1);
        let oracle = Hashtogram::new(params.clone(), 21);
        let xs: Vec<u64> = (0..n).map(|i| i % 97).collect();
        // Three ragged user ranges, each fused-encoded on its own.
        let ranges = [(0usize, 700usize), (700, 2_699), (2_699, n as usize)];
        let chunks: Vec<(u64, Vec<u8>, Vec<u32>)> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let mut bytes = Vec::new();
                let lens = oracle.respond_encode_batch(lo as u64, &xs[lo..hi], 22, &mut bytes);
                (lo as u64, bytes, lens)
            })
            .collect();

        let mut serial = Hashtogram::new(params.clone(), 21);
        for (start, bytes, lens) in &chunks {
            let frames = WireFrames::new(bytes, lens).unwrap();
            for (k, frame) in frames.iter().enumerate() {
                serial.collect(start + k as u64, HashtogramReport::decode(frame).unwrap());
            }
        }

        // Absorb the ranges into separate shards, merge out of order.
        let mut sharded = Hashtogram::new(params, 21);
        let mut shards: Vec<HashtogramShard> = chunks
            .iter()
            .map(|(start, bytes, lens)| {
                let mut shard = sharded.new_shard();
                let frames = WireFrames::new(bytes, lens).unwrap();
                sharded.absorb_wire(&mut shard, *start, &frames).unwrap();
                shard
            })
            .collect();
        let sh_c = shards.pop().unwrap();
        let sh_b = shards.pop().unwrap();
        let sh_a = shards.pop().unwrap();
        let merged = sharded.merge(sh_c, sharded.merge(sh_a, sh_b));
        sharded.finish_shard(merged);

        serial.finalize();
        sharded.finalize();
        for q in [0u64, 5, 96, 1 << 19] {
            assert_eq!(serial.estimate(q).to_bits(), sharded.estimate(q).to_bits());
        }
    }

    #[test]
    fn group_assignment_is_balanced() {
        let oracle = Hashtogram::new(HashtogramParams::hashed(10_000, 1 << 20, 1.0, 0.05), 11);
        let r = oracle.params().groups;
        let mut counts = vec![0u64; r];
        for i in 0..10_000u64 {
            counts[oracle.group_of(i) as usize] += 1;
        }
        let expect = 10_000.0 / r as f64;
        for (g, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "group {g}: {c} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "estimate before finalize")]
    fn estimate_requires_finalize() {
        let oracle = Hashtogram::new(HashtogramParams::direct(16, 1.0, 0.1), 12);
        let _ = oracle.estimate(3);
    }

    #[test]
    #[should_panic(expected = "collect after finalize")]
    fn collect_after_finalize_panics() {
        let mut oracle = Hashtogram::new(HashtogramParams::direct(16, 1.0, 0.1), 13);
        let mut rng = seeded_rng(14);
        let rep = oracle.respond(0, 3, &mut rng);
        oracle.finalize();
        oracle.collect(0, rep);
    }

    /// Test-local reference estimate, independent of the sweep: Horner
    /// over the hash coefficients in `u128`, `%` range reduction, and a
    /// stable `sort_by` median.
    fn reference_estimate(o: &Hashtogram, x: u64) -> f64 {
        let p = u128::from(hh_hash::MERSENNE_P);
        let horner = |c: &[u64]| {
            c.iter()
                .rev()
                .fold(0u128, |acc, &c| (acc * u128::from(x) + u128::from(c)) % p) as u64
        };
        let n = o.total_users as f64;
        let mut vals: Vec<f64> = (0..o.params.groups)
            .map(|r| {
                let (b, s) = if o.params.hashed {
                    let b = horner(o.bucket_hashes[r].as_kwise().coefficients()) % o.params.buckets;
                    let parity = horner(o.sign_hashes[r].as_kwise().coefficients()) % (1 << 32) % 2;
                    (b, if parity == 0 { 1.0 } else { -1.0 })
                } else {
                    (x, 1.0)
                };
                let m = o.group_counts[r].max(1) as f64;
                (o.acc[r][b as usize] * s) * (n / m)
            })
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let k = vals.len();
        if k % 2 == 1 {
            vals[k / 2]
        } else {
            0.5 * (vals[k / 2 - 1] + vals[k / 2])
        }
    }

    #[test]
    fn estimate_run_matches_reference_bit_for_bit() {
        const T: usize = SWEEP_TILE;
        let domain = (3 * T + 37) as u64; // not a multiple of the tile
        let heavy = [(5, 0.2), (T as u64 + 1, 0.1)];
        let mut oracles = vec![
            run(
                HashtogramParams::hashed(4_000, domain, 1.0, 0.05),
                &planted_data(4_000, domain, &heavy, 31),
                32,
            ),
            run(
                HashtogramParams::direct(domain, 1.0, 0.05),
                &planted_data(4_000, domain, &heavy, 33),
                34,
            ),
            // Sparse and empty states: exact-zero buckets make ±0.0 ties
            // whose median only a stable sort order pins.
            run(
                HashtogramParams::hashed(4_000, domain, 1.0, 0.05),
                &[3, 3, 9],
                35,
            ),
            run(HashtogramParams::hashed(4_000, domain, 1.0, 0.05), &[], 36),
        ];
        // An even group count takes the two-middle-values median.
        let mut even = HashtogramParams::direct(domain, 1.0, 0.05);
        even.groups = 4;
        oracles.push(run(even, &planted_data(2_000, domain, &heavy, 37), 38));
        let d = domain as usize;
        let runs = [
            (0, d),
            (0, 1),
            (7, 1),
            (d - 1, 1),
            (3, T - 1),
            (T + 7, T),
            (1, T + 1),
            (d - (T + 1), T + 1),
            (T, 2 * T + 37),
        ];
        let mut tile = Vec::new();
        for oracle in &oracles {
            let reference: Vec<u64> = (0..domain)
                .map(|x| reference_estimate(oracle, x).to_bits())
                .collect();
            for &(start, len) in &runs {
                let mut out = vec![f64::NAN; len];
                oracle.estimate_run(start as u64, &mut out, &mut tile);
                let got: Vec<u64> = out.iter().map(|f| f.to_bits()).collect();
                assert_eq!(got, reference[start..start + len], "run {start}+{len}");
            }
            for x in [0, 1, domain / 2, domain - 1] {
                assert_eq!(oracle.estimate(x).to_bits(), reference[x as usize]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn estimate_run_rejects_runs_past_the_domain() {
        let oracle = run(HashtogramParams::direct(16, 1.0, 0.1), &[1, 2], 39);
        oracle.estimate_run(10, &mut [0.0; 7], &mut Vec::new());
    }

    #[test]
    fn memory_matches_promise() {
        // Theorem 3.7: O~(sqrt(n)) memory.
        let n = 1u64 << 20;
        let oracle = Hashtogram::new(HashtogramParams::hashed(n, 1 << 40, 1.0, 0.01), 15);
        let mem = oracle.memory_bytes();
        // R * W * 8 with W = 1024 = sqrt(n), R ~ 10: far below n bytes.
        assert!(mem < (n as usize) / 8, "memory {mem} too large");
    }
}
