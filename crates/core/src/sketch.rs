//! Algorithm `PrivateExpanderSketch` (paper §3.3).
//!
//! Public randomness (one seed): a random partition of users into
//! `I_1, …, I_M`, pairwise hashes `h_m : X → [Y]` and the expander (owned
//! by the [`UniqueListCode`]), and a `(C_g log|X|)`-wise hash
//! `g : X → [B]`.
//!
//! Client (user `i ∈ I_m` holding `x`): one message carrying
//!
//! 1. an `ε/2` Hashtogram report of the cell
//!    `(g(x), h_m(x), E~nc(x)_m) ∈ [B]×[Y]×[Z]` for the coordinate oracle
//!    (step 1 of the algorithm), and
//! 2. an `ε/2` Hashtogram report of `x` itself for the final estimates
//!    (step 5).
//!
//! Both components are ε-LDP in total by basic composition, and the
//! protocol is one-round and non-interactive.
//!
//! Server: per coordinate, reconstruct all cell tallies (an exact integer
//! WHT, streamed slab by slab so the `W_in`-cell transform never exists
//! at once), take the per-`(b, y)` argmax over `z` against the stand-out
//! threshold (steps 2–3), decode each bucket's lists through the
//! unique-list-recoverable code (step 4), and return the outer-oracle
//! estimates of the decoded candidates (steps 5–6).

use crate::params::SketchParams;
use crate::traits::{
    Aggregator, FinishScratch, FrameError, HeavyHitterProtocol, WireError, WireFrames, WireReport,
    WireShard,
};
use hh_codes::ulrc::UniqueListCode;
use hh_freq::hashtogram::{
    read_report_run, report_run_len, write_report_run, Hashtogram, HashtogramReport,
    HashtogramShard,
};
use hh_freq::traits::FrequencyOracle;
use hh_freq::wire;
use hh_freq::wire::{pack_row_bit, varint_len, write_varint, ShardReader};
use hh_hash::family::labels;
use hh_hash::{HashFamily, KWiseHash};
use hh_math::par::{par_chunk_map, par_chunk_zip_map, par_map_indexed, planned_threads};
use hh_math::rng::derive_seed;
use hh_math::sampler::ClientCoins;
use hh_math::wht::{add_folded, fwht_int, hadamard_entry, WhtCell, FOLD, WHT_BLOCK};
use rand::Rng;

/// The single message a user sends: her coordinate report and her final
/// frequency-oracle report. The user's coordinate `m` is a public
/// function of her index and is recomputed server-side, not transported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchReport {
    /// Hashtogram report of the `(g(x), h_m(x), E~nc(x)_m)` cell.
    pub inner: HashtogramReport,
    /// Hashtogram report of `x` for the outer oracle.
    pub outer: HashtogramReport,
}

/// Wire format: the shared [`wire::encode_pair`] composite frame — the
/// two Hadamard payloads in their own minimal encodings behind a
/// one-byte split marker, so the decoder needs no protocol parameters.
/// `report_bits()` counts exactly this layout.
impl WireReport for SketchReport {
    fn encoded_len(&self) -> usize {
        wire::pair_encoded_len(&self.inner, &self.outer)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::encode_pair(&self.inner, &self.outer, out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (inner, outer) = wire::decode_pair(bytes)?;
        Ok(SketchReport { inner, outer })
    }
}

/// Mergeable partial aggregate of an [`ExpanderSketch`]: buffered inner
/// reports per coordinate, each packed as `ℓ·2 + [bit > 0]`
/// ([`pack_row_bit`]; each coordinate is decoded from them at finish),
/// plus the outer oracle's integer-tally shard.
pub struct SketchShard {
    inner: Vec<Vec<u64>>,
    outer: HashtogramShard,
    users: u64,
}

/// Snapshot codec — a composite frame of the two aggregation halves:
/// `[users][outer_len][outer shard frame][coords]` followed by one
/// buffered-report run per coordinate (each report the same
/// `ℓ·2 + bit` scalar as its wire format). All integers canonical
/// varints, so the frame is self-describing.
impl WireShard for SketchShard {
    fn shard_encoded_len(&self) -> usize {
        let outer = self.outer.shard_encoded_len();
        varint_len(self.users)
            + varint_len(outer as u64)
            + outer
            + varint_len(self.inner.len() as u64)
            + self
                .inner
                .iter()
                .map(|run| report_run_len(run))
                .sum::<usize>()
    }

    fn encode_shard_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.users);
        write_varint(out, self.outer.shard_encoded_len() as u64);
        self.outer.encode_shard_into(out);
        write_varint(out, self.inner.len() as u64);
        for run in &self.inner {
            write_report_run(out, run);
        }
    }

    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ShardReader::new(bytes);
        let users = r.u64()?;
        let outer_len = r.count()?;
        let outer = HashtogramShard::decode_shard(r.raw(outer_len)?)?;
        let coords = r.count()?;
        let mut inner = Vec::with_capacity(coords);
        for _ in 0..coords {
            inner.push(read_report_run(&mut r)?);
        }
        r.finish()?;
        Ok(SketchShard {
            inner,
            outer,
            users,
        })
    }
}

/// Users per tile of the batch client's group-hash pass.
const G_TILE: usize = 64;

/// `PrivateExpanderSketch`: public randomness + server state.
pub struct ExpanderSketch {
    params: SketchParams,
    seed: u64,
    ulrc: UniqueListCode,
    group_hash: KWiseHash,
    /// Prototype inner oracle: the public randomness and parameters all
    /// coordinates share. It answers client `respond` calls and supplies
    /// `W_in` and the debias constant; it never ingests a report.
    inner_proto: Hashtogram,
    /// Buffered inner reports per coordinate, each packed as
    /// `ℓ·2 + [bit > 0]` ([`pack_row_bit`]). Finish decodes each
    /// coordinate from them slab by slab ([`slab_cells`]), so peak decode
    /// memory per worker is one slab plus a grouped copy of the largest
    /// coordinate's reports, not a `W_in`-cell buffer.
    inner_reports: Vec<Vec<u64>>,
    outer: Hashtogram,
    users_seen: u64,
    finished: bool,
}

impl ExpanderSketch {
    /// Instantiate from parameters and a public-randomness seed.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let ulrc = UniqueListCode::new(params.ulrc_params(), derive_seed(seed, 0xC0DE));
        let family = HashFamily::new(seed);
        let group_hash = family.kwise(
            labels::SKETCH_GROUP_HASH,
            0,
            params.g_independence,
            params.num_buckets,
        );
        let inner_proto = Hashtogram::new(params.inner_oracle_params(), derive_seed(seed, 0x1222));
        let outer = Hashtogram::new(params.outer_oracle_params(), derive_seed(seed, 0x0173));
        let inner_reports = vec![Vec::new(); params.num_coords];
        Self {
            params,
            seed,
            ulrc,
            group_hash,
            inner_proto,
            inner_reports,
            outer,
            users_seen: 0,
            finished: false,
        }
    }

    /// Protocol parameters.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// The prototype inner oracle (shared public randomness for all
    /// coordinates) — exposed for audits and client-path benchmarks.
    pub fn inner_oracle(&self) -> &Hashtogram {
        &self.inner_proto
    }

    /// The outer (full-domain) oracle — exposed for audits and
    /// client-path benchmarks.
    pub fn outer_oracle(&self) -> &Hashtogram {
        &self.outer
    }

    /// The derivation seed of the public partition (hoistable by batch
    /// paths; one value per sketch instance).
    fn partition_seed(&self) -> u64 {
        derive_seed(self.seed, labels::SKETCH_PARTITION)
    }

    /// The coordinate of `user_index` under a hoisted partition seed —
    /// the single definition both [`ExpanderSketch::coord_of`] and the
    /// batch path go through, so they cannot diverge.
    fn coord_at(partition_seed: u64, user_index: u64, num_coords: u64) -> usize {
        (derive_seed(partition_seed, user_index) % num_coords) as usize
    }

    /// The public coordinate assignment `i ↦ m` (the random partition
    /// `I_1, …, I_M`).
    pub fn coord_of(&self, user_index: u64) -> usize {
        Self::coord_at(
            self.partition_seed(),
            user_index,
            self.params.num_coords as u64,
        )
    }

    /// The group hash `g(x) ∈ [B]`.
    pub fn bucket_of(&self, x: u64) -> u64 {
        self.group_hash.hash(x)
    }

    /// The inner-oracle cell a user holding `x` in coordinate `m` reports.
    pub fn cell_of(&self, m: usize, x: u64) -> u64 {
        self.cell_in_bucket(self.bucket_of(x), m, x)
    }

    /// [`ExpanderSketch::cell_of`] given `b = g(x)`, which the batch path
    /// hashes a tile at a time.
    fn cell_in_bucket(&self, b: u64, m: usize, x: u64) -> u64 {
        let y = self.ulrc.coord_hash(m, x);
        let z = self.ulrc.enc_tilde(x, m);
        self.params.cell_id(b, y, z)
    }

    /// `Err` when a packed inner report's row `ℓ` lies outside `W_in`:
    /// it would index past the transform at finish. The same rejection
    /// the outer [`Hashtogram`] absorber applies to its own rows.
    fn check_inner_row(&self, packed: u64) -> Result<(), WireError> {
        if packed >> 1 < self.inner_proto.params().buckets {
            Ok(())
        } else {
            Err(WireError::Invalid("report row outside W"))
        }
    }

    /// [`ExpanderSketch::check_inner_row`] as a hard assert, for
    /// `collect` and the snapshot path, which have no error channel.
    fn assert_inner_row(&self, packed: u64) {
        self.check_inner_row(packed).unwrap_or_else(|_| {
            panic!(
                "report row {} outside W = {}",
                packed >> 1,
                self.inner_proto.params().buckets
            )
        });
    }

    /// The stand-out lists (step 3), exposed for inspection/ablation:
    /// `lists[b][m]` = the `(y, z)` pairs whose estimate cleared τ.
    ///
    /// Coordinates are independent, so they decode on `threads` workers
    /// (`0` = hardware, `1` = serial), each worker reusing one
    /// [`SlabScratch`] over a contiguous run of coordinates; results come
    /// back in coordinate order, so the lists are identical for every
    /// thread count.
    fn build_standout_lists(&self, threads: usize) -> Vec<Vec<Vec<(u64, u64)>>> {
        let w = self.inner_proto.params().buckets as usize;
        self.standout_lists_with(threads, |reports| slab_cells(reports, w))
    }

    /// [`ExpanderSketch::build_standout_lists`] with the slab size of a
    /// coordinate of `r` reports given by `slab(r)`.
    fn standout_lists_with(
        &self,
        threads: usize,
        slab: impl Fn(usize) -> usize + Sync,
    ) -> Vec<Vec<Vec<(u64, u64)>>> {
        let p = &self.params;
        let run = p
            .num_coords
            .div_ceil(planned_threads(threads, p.num_coords, 1))
            .max(1);
        let per_run = par_chunk_map(&self.inner_reports, run, threads, |_, run| {
            let mut scratch = SlabScratch::default();
            run.iter()
                .map(|reports| self.coord_standouts(reports, slab(reports.len()), &mut scratch))
                .collect::<Vec<_>>()
        });
        // Transpose coordinate-major results into `lists[b][m]`.
        let mut lists = vec![vec![Vec::new(); p.num_coords]; p.num_buckets as usize];
        for (m, per_b) in per_run.into_iter().flatten().enumerate() {
            for (b, list) in per_b.into_iter().enumerate() {
                lists[b][m] = list;
            }
        }
        lists
    }

    /// Steps 2–3 for one coordinate: its stand-out list per bucket,
    /// decoded from the exact integer tallies of its inner reports, one
    /// `s`-cell slab of the transform at a time.
    ///
    /// The inner oracle is one group with identity buckets and no signs,
    /// so its estimate of a cell is the debias constant `c` times the
    /// cell's Hadamard-transformed tally `T = H_W·cells`. With
    /// `H_W = H_{W/s} ⊗ H_s` and rows `ℓ = h·s + lo`, slab `j` of `T` is
    /// `H_s` of the `s`-cell vector `Σ_h (−1)^{popcount(h & j)}·cells_h`:
    /// the reports, grouped by `h` once, are added into the slab with
    /// their group's sign, and the slab runs through the integer WHT.
    /// Each contiguous `(b, y)` z-block's first-occurrence argmax of `T`
    /// is folded across the slabs it spans (strict `>` between
    /// segments), and only that winner is debiased (`c·T ≥ τ`). `c > 0`,
    /// so the winner is the oracle's argmax; only on an exact tie could
    /// the f64 estimates order the tied cells differently. Slabs past the
    /// `B·Y·Z` cells hold only padding and are skipped.
    ///
    /// Cells are `i16` when the report count fits it ([`narrow_cells`])
    /// and `i32` otherwise.
    fn coord_standouts(
        &self,
        reports: &[u64],
        s: usize,
        scratch: &mut SlabScratch,
    ) -> Vec<Vec<(u64, u64)>> {
        if reports.is_empty() {
            return vec![Vec::new(); self.params.num_buckets as usize];
        }
        // Every transform intermediate is bounded by the report count.
        assert!(
            i32::try_from(reports.len()).is_ok(),
            "{} reports in one coordinate overflow the i32 transform",
            reports.len()
        );
        let w = self.inner_proto.params().buckets as usize;
        assert!(
            s.is_power_of_two() && (FOLD..=w.min(1 << 31)).contains(&s),
            "slab {s} of W = {w}"
        );
        let SlabScratch {
            groups,
            narrow,
            wide,
        } = scratch;
        groups.group(reports, s, w);
        if narrow_cells(reports.len()) {
            self.slab_standouts(groups, narrow, s)
        } else {
            self.slab_standouts(groups, wide, s)
        }
    }

    /// [`ExpanderSketch::coord_standouts`] over grouped reports, in
    /// `s`-cell slabs of `T`.
    fn slab_standouts<T: WhtCell>(
        &self,
        groups: &SlabGroups,
        slab: &mut Vec<T>,
        s: usize,
    ) -> Vec<Vec<(u64, u64)>> {
        let p = &self.params;
        let mut out = vec![Vec::new(); p.num_buckets as usize];
        let c = self.inner_proto.debias_factor();
        let tau = p.standout_threshold();
        let y_range = p.y_range as usize;
        let z_len = p.z_cardinality() as usize;
        let cells = p.inner_cells() as usize;
        slab.clear();
        slab.resize(s, T::default());
        // The running argmax of the z-block the current slab continues.
        let (mut best, mut best_z) = (T::default(), 0usize);
        for j in 0..cells.div_ceil(s) {
            groups.transform_slab(slab, j);
            let base = j * s;
            let end = cells.min(base + s);
            let mut at = base;
            while at < end {
                let (k, off) = (at / z_len, at % z_len);
                let block_end = at - off + z_len;
                let seg_end = end.min(block_end);
                let seg = &slab[at - base..seg_end - base];
                let seg_max = lane_max(seg);
                if off == 0 || seg_max > best {
                    best = seg_max;
                    // Only a winner that clears τ is ever listed.
                    if c * seg_max.into() >= tau {
                        let first = seg.iter().position(|&t| t == seg_max);
                        best_z = off + first.expect("max is in its segment");
                    }
                }
                if seg_end == block_end {
                    let list = &mut out[k / y_range];
                    if c * best.into() >= tau && list.len() < p.list_cap {
                        list.push(((k % y_range) as u64, best_z as u64));
                    }
                }
                at = seg_end;
            }
        }
        out
    }
}

/// The largest cell of a non-empty segment, folded in fixed lane
/// accumulators so the loop vectorizes (`Iterator::max` does not).
fn lane_max<T: WhtCell>(seg: &[T]) -> T {
    const LANES: usize = 32;
    let (chunks, rest) = seg.as_chunks::<LANES>();
    let mut acc = [seg[0]; LANES];
    for chunk in chunks {
        for (a, &t) in acc.iter_mut().zip(chunk) {
            *a = (*a).max(t);
        }
    }
    acc.into_iter()
        .chain(rest.iter().copied())
        .max()
        .expect("segments are non-empty")
}

/// Whether a coordinate of `reports` reports decodes in `i16` cells:
/// every transform intermediate is bounded by the report count, so the
/// narrow cells are exact while the count fits them. Larger coordinates
/// decode in `i32`.
fn narrow_cells(reports: usize) -> bool {
    i16::try_from(reports).is_ok()
}

/// Cells per decode slab of a coordinate holding `reports` reports over
/// a `w`-cell transform: at least one L2-resident [`WHT_BLOCK`], at least
/// the report count, so adding every report into every slab costs at
/// most one more pass over the `w` cells, and at most `w`.
fn slab_cells(reports: usize, w: usize) -> usize {
    reports.next_power_of_two().max(WHT_BLOCK).min(w)
}

/// One finish worker's decode scratch, reused across its coordinates:
/// the grouped reports and one slab per cell width.
#[derive(Default)]
struct SlabScratch {
    groups: SlabGroups,
    /// The slab of a coordinate decoded in `i16` cells ...
    narrow: Vec<i16>,
    /// ... and of one decoded in `i32` cells.
    wide: Vec<i32>,
}

/// A coordinate's reports grouped by slab.
#[derive(Default)]
struct SlabGroups {
    /// The reports as `lo·2 + [bit > 0]`, grouped by the high index
    /// `h = ℓ / s` of their row ...
    grouped: Vec<u32>,
    /// ... with group `h` at `grouped[starts[h]..starts[h + 1]]`.
    starts: Vec<usize>,
}

impl SlabGroups {
    /// Counting-sort packed `reports` into the `w / s` groups of `s` rows
    /// of a `w`-row transform (`s ≤ 2^31`, so `lo·2 + bit` fits `u32`).
    fn group(&mut self, reports: &[u64], s: usize, w: usize) {
        let (shift, groups) = (s.trailing_zeros() + 1, w / s);
        self.starts.clear();
        self.starts.resize(groups + 1, 0);
        for &v in reports {
            self.starts[(v >> shift) as usize + 1] += 1;
        }
        for h in 1..=groups {
            self.starts[h] += self.starts[h - 1];
        }
        self.grouped.clear();
        self.grouped.resize(reports.len(), 0);
        let lo_mask = 2 * s as u64 - 1;
        for &v in reports {
            let next = &mut self.starts[(v >> shift) as usize];
            self.grouped[*next] = (v & lo_mask) as u32;
            *next += 1;
        }
        // Each start now holds its group's end, the next group's start.
        self.starts.rotate_right(1);
        self.starts[0] = 0;
    }

    /// Slab `j` of the whole transform: each group added with its sign
    /// `(−1)^{popcount(h & j)}` as rows of `H_8` ([`add_folded`]), then the
    /// rest of the slab's own WHT.
    fn transform_slab<T: WhtCell>(&self, slab: &mut [T], j: usize) {
        slab.fill(T::default());
        for (h, ends) in self.starts.windows(2).enumerate() {
            let run = &self.grouped[ends[0]..ends[1]];
            add_folded(slab, run, hadamard_entry(h as u64, j as u64) < 0);
        }
        fwht_int(slab, FOLD);
    }
}

impl Aggregator for ExpanderSketch {
    type Report = SketchReport;
    type Shard = SketchShard;

    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> SketchReport {
        let m = self.coord_of(user_index);
        let cell = self.cell_of(m, x);
        let inner = self.inner_proto.respond(user_index, cell, rng);
        let outer = self.outer.respond(user_index, x, rng);
        SketchReport { inner, outer }
    }

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        // Fused: write each composite pair frame straight to the wire —
        // no intermediate report vec. The group hash g runs over tiles of
        // `G_TILE` users through the interleaved `hash_into`; then per-user
        // derived coin streams with the partition component seed hoisted
        // out of the loop; inner, then outer — the same draw order as
        // `respond`.
        let part_seed = self.partition_seed();
        let num_coords = self.params.num_coords as u64;
        let coins = ClientCoins::new(client_seed);
        let mut lens = Vec::with_capacity(xs.len());
        let mut buckets = [0u64; G_TILE];
        for (t, tile) in xs.chunks(G_TILE).enumerate() {
            let buckets = &mut buckets[..tile.len()];
            self.group_hash.hash_into(tile, buckets);
            for (k, (&x, &b)) in tile.iter().zip(buckets.iter()).enumerate() {
                let i = start_index + (t * G_TILE + k) as u64;
                let mut rng = coins.user(i);
                let m = Self::coord_at(part_seed, i, num_coords);
                let rep = SketchReport {
                    inner: self
                        .inner_proto
                        .respond(i, self.cell_in_bucket(b, m, x), &mut rng),
                    outer: self.outer.respond(i, x, &mut rng),
                };
                let before = out.len();
                rep.encode_into(out);
                lens.push((out.len() - before) as u32);
            }
        }
        lens
    }

    fn collect(&mut self, user_index: u64, report: SketchReport) {
        assert!(!self.finished, "collect after finish");
        let inner = pack_row_bit(report.inner.ell, report.inner.bit);
        self.assert_inner_row(inner);
        let m = self.coord_of(user_index);
        self.inner_reports[m].push(inner);
        self.outer.collect(user_index, report.outer);
        self.users_seen += 1;
    }

    fn new_shard(&self) -> SketchShard {
        SketchShard {
            inner: vec![Vec::new(); self.params.num_coords],
            outer: self.outer.new_shard(),
            users: 0,
        }
    }

    fn absorb_wire(
        &self,
        shard: &mut SketchShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        // Zero-copy: split each composite frame in place — the inner
        // report buffers into its (recomputed) coordinate, the outer
        // report tallies straight into the outer shard through the
        // hoisted absorber. No `Vec<SketchReport>`, no per-chunk outer
        // report vec.
        let part_seed = self.partition_seed();
        let num_coords = self.params.num_coords as u64;
        let outer_absorber = self.outer.absorber();
        for (k, frame) in frames.iter().enumerate() {
            let (inner, outer) = wire::decode_pair::<HashtogramReport, HashtogramReport>(frame)
                .map_err(|e| frames.frame_error(k, e))?;
            let inner = pack_row_bit(inner.ell, inner.bit);
            self.check_inner_row(inner)
                .map_err(|e| frames.frame_error(k, e))?;
            let i = start_index + k as u64;
            let m = Self::coord_at(part_seed, i, num_coords);
            shard.inner[m].push(inner);
            outer_absorber
                .absorb_one(&mut shard.outer, i, outer)
                .map_err(|e| frames.frame_error(k, e))?;
        }
        shard.users += frames.len() as u64;
        Ok(())
    }

    fn merge(&self, mut a: SketchShard, b: SketchShard) -> SketchShard {
        // Hard check — decoded snapshots are parameter-free, so a shard
        // with a different coordinate count must not zip-truncate.
        assert_eq!(a.inner.len(), b.inner.len(), "shard shape mismatch");
        for (acc, mut add) in a.inner.iter_mut().zip(b.inner) {
            acc.append(&mut add);
        }
        a.outer = self.outer.merge(a.outer, b.outer);
        a.users += b.users;
        a
    }

    fn finish_shard(&mut self, shard: SketchShard) {
        assert!(!self.finished, "collect after finish");
        assert_eq!(
            shard.inner.len(),
            self.params.num_coords,
            "shard shape mismatch"
        );
        // Decoded snapshots are unvalidated: a bad row fails here, not as
        // an index panic inside finish.
        for &packed in shard.inner.iter().flatten() {
            self.assert_inner_row(packed);
        }
        for (acc, mut add) in self.inner_reports.iter_mut().zip(shard.inner) {
            acc.append(&mut add);
        }
        self.outer.finish_shard(shard.outer);
        self.users_seen += shard.users;
    }

    fn report_bits(&self) -> usize {
        // Exact worst-case wire size of the composite message (still
        // Θ(log) — the components claim 1 + log₂W bits each).
        wire::pair_wire_bits(self.inner_proto.report_bits(), self.outer.report_bits())
    }

    fn memory_bytes(&self) -> usize {
        // The buffered inner reports (one packed `u64` each) + the decode
        // scratch of the coordinate with the most reports — its slab, the
        // largest and widest any coordinate uses, and its grouped reports
        // (a parallel finish holds one scratch per worker; this is the
        // serial floor) + the outer oracle sketch + stand-out lists.
        let buffered = self.inner_reports.iter().map(Vec::len).sum::<usize>();
        let most = self.inner_reports.iter().map(Vec::len).max().unwrap_or(0);
        let decode = if most == 0 {
            0
        } else {
            let cell = if narrow_cells(most) {
                std::mem::size_of::<i16>()
            } else {
                std::mem::size_of::<i32>()
            };
            slab_cells(most, self.inner_proto.params().buckets as usize) * cell
                + most * std::mem::size_of::<u32>()
        };
        buffered * std::mem::size_of::<u64>()
            + decode
            + self.outer.memory_bytes()
            + self.params.num_buckets as usize
                * self.params.num_coords
                * self.params.list_cap
                * std::mem::size_of::<(u64, u64)>()
    }

    fn epsilon(&self) -> f64 {
        self.params.eps
    }
}

impl HeavyHitterProtocol for ExpanderSketch {
    fn finish(&mut self) -> Vec<(u64, f64)> {
        self.finish_with(&mut FinishScratch::default())
    }

    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        assert!(!self.finished, "double finish");
        self.finished = true;
        let threads = scratch.threads;
        // Steps 2–3: stand-out lists per (bucket, coordinate) —
        // coordinates decode on parallel workers.
        let lists = self.build_standout_lists(threads);
        // Step 4: decode each bucket; keep candidates that land in their
        // own bucket under g. Buckets decode independently (results in
        // bucket order); the cross-bucket dedup stays serial so the
        // candidate order — bucket-ascending, decode order within — is
        // the serial loop's exactly.
        let decoded = par_map_indexed(lists.len(), threads, |b| {
            self.ulrc
                .decode(&lists[b])
                .into_iter()
                .filter(|&x| self.bucket_of(x) == b as u64)
                .collect::<Vec<u64>>()
        });
        let mut candidates: Vec<u64> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for bucket_candidates in decoded {
            for x in bucket_candidates {
                if seen.insert(x) {
                    candidates.push(x);
                }
            }
        }
        // Steps 5–6: final estimates from the outer oracle, swept over
        // candidate chunks in parallel (chunk order preserved; each
        // chunk's median workspace is a pooled scratch buffer).
        self.outer.finalize_with(scratch);
        let keep = self.params.keep_threshold();
        let mut est: Vec<(u64, f64)> = Vec::with_capacity(candidates.len());
        if !candidates.is_empty() {
            let workers = planned_threads(threads, candidates.len(), 1);
            let chunk = candidates.len().div_ceil(workers).max(1);
            let num_chunks = candidates.len().div_ceil(chunk);
            let bufs: Vec<Vec<f64>> = (0..num_chunks).map(|_| scratch.take_f64()).collect();
            let parts = par_chunk_zip_map(&candidates, chunk, threads, bufs, |_, xs, mut buf| {
                let part: Vec<(u64, f64)> = xs
                    .iter()
                    .map(|&x| (x, self.outer.estimate_into(x, &mut buf)))
                    .filter(|&(_, f)| f >= keep)
                    .collect();
                (part, buf)
            });
            for (part, buf) in parts {
                est.extend_from_slice(&part);
                scratch.put_f64(buf);
            }
        }
        est.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite estimates")
                .then_with(|| a.0.cmp(&b.0))
        });
        est
    }

    fn detection_threshold(&self) -> f64 {
        self.params.detection_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_math::rng::seeded_rng;

    /// Build a dataset with planted heavy elements (given as (value,
    /// fraction)) over a light uniform tail.
    fn planted(n: usize, domain_bits: u32, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let domain = 1u64 << domain_bits;
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

    fn run_protocol(params: SketchParams, data: &[u64], seed: u64) -> Vec<(u64, f64)> {
        let mut server = ExpanderSketch::new(params, seed);
        let mut rng = seeded_rng(derive_seed(seed, 0xFACE));
        for (i, &x) in data.iter().enumerate() {
            let rep = server.respond(i as u64, x, &mut rng);
            server.collect(i as u64, rep);
        }
        server.finish()
    }

    /// Test-only reference decode of the stand-out lists through the
    /// inner oracle itself: per coordinate, clone the prototype,
    /// `collect` its reports, `finalize` (f64 debias + WHT), then take
    /// each `(b, y)` argmax over `z` of `estimate_into`.
    fn oracle_standout_lists(s: &ExpanderSketch) -> Vec<Vec<Vec<(u64, u64)>>> {
        let p = &s.params;
        let tau = p.standout_threshold();
        let mut lists = vec![vec![Vec::new(); p.num_coords]; p.num_buckets as usize];
        for (m, reports) in s.inner_reports.iter().enumerate() {
            if reports.is_empty() {
                continue;
            }
            let mut oracle = s.inner_proto.clone();
            for &packed in reports {
                let (ell, bit) = wire::unpack_row_bit(packed);
                oracle.collect(0, HashtogramReport { ell, bit });
            }
            oracle.finalize();
            let mut buf = Vec::new();
            for (b, per_m) in lists.iter_mut().enumerate() {
                for y in 0..p.y_range {
                    let base = p.cell_id(b as u64, y, 0);
                    let (mut best_z, mut best_v) = (0, f64::NEG_INFINITY);
                    for z in 0..p.z_cardinality() {
                        let v = oracle.estimate_into(base + z, &mut buf);
                        if v > best_v {
                            (best_z, best_v) = (z, v);
                        }
                    }
                    if best_v >= tau && per_m[m].len() < p.list_cap {
                        per_m[m].push((y, best_z));
                    }
                }
            }
        }
        lists
    }

    #[test]
    fn integer_decode_matches_oracle_reference() {
        // Two profiles (small/large domain, high/low ε) × two seeds, each
        // with a planted element heavy enough to stand out, so the lists
        // under comparison are not all empty. Both profiles have 2^21
        // inner cells: the reference's per-cell estimates dominate the
        // test's time.
        for (n, bits, eps) in [(1usize << 12, 16u32, 4.0), (1 << 13, 20, 2.0)] {
            let params = SketchParams::optimal(n as u64, bits, eps, 0.1);
            for seed in [1u64, 2] {
                let data = planted(n, bits, &[(0x2a, 0.9)], seed);
                let mut server = ExpanderSketch::new(params.clone(), seed);
                let mut rng = seeded_rng(derive_seed(seed, 0xFACE));
                for (i, &x) in data.iter().enumerate() {
                    let rep = server.respond(i as u64, x, &mut rng);
                    server.collect(i as u64, rep);
                }
                let want = oracle_standout_lists(&server);
                assert!(
                    want.iter().flatten().any(|l| !l.is_empty()),
                    "n = {n}, seed = {seed}: no stand-outs to compare"
                );
                for threads in [1, 2] {
                    assert_eq!(
                        server.build_standout_lists(threads),
                        want,
                        "n = {n}, bits = {bits}, seed = {seed}, threads = {threads}"
                    );
                }
            }
        }
    }

    /// Test-only whole-buffer decode: per coordinate, every report
    /// scattered into one `W_in`-cell `i32` buffer, one unfolded
    /// `fwht_int`, then each z-block's `max` and the first `position` of
    /// it.
    fn whole_buffer_standout_lists(s: &ExpanderSketch) -> Vec<Vec<Vec<(u64, u64)>>> {
        let p = &s.params;
        let c = s.inner_proto.debias_factor();
        let tau = p.standout_threshold();
        let y_range = p.y_range as usize;
        let mut lists = vec![vec![Vec::new(); p.num_coords]; p.num_buckets as usize];
        for (m, reports) in s.inner_reports.iter().enumerate() {
            if reports.is_empty() {
                continue;
            }
            let mut cells = vec![0i32; s.inner_proto.params().buckets as usize];
            for &packed in reports {
                let (ell, bit) = wire::unpack_row_bit(packed);
                cells[ell as usize] += i32::from(bit);
            }
            fwht_int(&mut cells, 1);
            let z_blocks =
                cells[..p.inner_cells() as usize].chunks_exact(p.z_cardinality() as usize);
            for (k, block) in z_blocks.enumerate() {
                let best = *block.iter().max().unwrap();
                let list = &mut lists[k / y_range][m];
                if c * f64::from(best) >= tau && list.len() < p.list_cap {
                    let z = block.iter().position(|&t| t == best).unwrap();
                    list.push(((k % y_range) as u64, z as u64));
                }
            }
        }
        lists
    }

    #[test]
    fn slab_decode_matches_whole_buffer_at_every_slab_size() {
        // The optimal profile (Z = 2^16, so slabs below 2^16 split
        // z-blocks) and one with Y = 5 (Z = 10000: z-blocks straddle slab
        // boundaries, and B·Y·Z < W_in, so trailing slabs are skipped).
        let n = 1usize << 12;
        let optimal = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
        let y5 = SketchParams {
            y_range: 5,
            ..optimal.clone()
        };
        assert!(y5.inner_cells() < y5.inner_cells().next_power_of_two());
        for params in [optimal, y5] {
            let data = planted(n, 16, &[(0x2a, 0.9)], 3);
            let mut planted = ExpanderSketch::new(params.clone(), 3);
            let mut rng = seeded_rng(derive_seed(3, 0xFACE));
            for (i, &x) in data.iter().enumerate() {
                let rep = planted.respond(i as u64, x, &mut rng);
                planted.collect(i as u64, rep);
            }
            // Every report of coordinate 0 on row 0: its `T` is constant
            // and above τ, so each z-block ties in every cell and only the
            // first-occurrence rule across slabs picks z = 0.
            let mut tied = ExpanderSketch::new(params.clone(), 3);
            let r = (params.standout_threshold() / tied.inner_proto.debias_factor()) as usize + 1;
            tied.inner_reports[0] = vec![pack_row_bit(0, 1); r];
            // Planted coordinate 0 repeated past `i16::MAX` reports: the
            // same tallies, scaled, through the `i32` cells.
            assert!(planted.inner_reports.iter().all(|r| narrow_cells(r.len())));
            let mut wide = ExpanderSketch::new(params.clone(), 3);
            let once = &planted.inner_reports[0];
            wide.inner_reports[0] = once.repeat(i16::MAX as usize / once.len() + 1);
            assert!(!narrow_cells(wide.inner_reports[0].len()));
            for server in [planted, tied, wide] {
                let want = whole_buffer_standout_lists(&server);
                assert!(
                    want.iter().flatten().any(|l| !l.is_empty()),
                    "Y = {}: no stand-outs to compare",
                    params.y_range
                );
                assert_eq!(server.build_standout_lists(1), want);
                let w = server.inner_proto.params().buckets as usize;
                let mut s = w;
                while s >= 1 << 10 {
                    for threads in [1, 2] {
                        assert_eq!(
                            server.standout_lists_with(threads, |_| s),
                            want,
                            "Y = {}, slab = {s}, threads = {threads}",
                            params.y_range
                        );
                    }
                    s /= 2;
                }
            }
        }
    }

    #[test]
    fn all_tied_coordinates_decode_exactly_at_the_cell_width_boundary() {
        // Every report on row 0: every cell's `T` is the report count, so
        // an `i16` slab at `i16::MAX + 1` reports would overflow.
        let p = SketchParams::optimal(1 << 12, 16, 4.0, 0.1);
        for (r, narrow) in [(i16::MAX as usize, true), (i16::MAX as usize + 1, false)] {
            assert_eq!(narrow_cells(r), narrow);
            let mut server = ExpanderSketch::new(p.clone(), 4);
            server.inner_reports[1] = vec![pack_row_bit(0, 1); r];
            let want = whole_buffer_standout_lists(&server);
            assert!(want
                .iter()
                .all(|per_m| per_m[1].len() == p.list_cap.min(p.y_range as usize)));
            for threads in [1, 2] {
                assert_eq!(
                    server.build_standout_lists(threads),
                    want,
                    "r = {r}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn slab_size_rule() {
        let w = 1 << 23;
        // One L2 block at least, whatever the report count.
        assert_eq!(slab_cells(0, w), WHT_BLOCK);
        assert_eq!(slab_cells(26_000, w), WHT_BLOCK);
        assert_eq!(slab_cells(1 << 16, w), 1 << 16);
        // At least the report count past one block's worth of reports.
        assert_eq!(slab_cells((1 << 16) + 1, w), 1 << 17);
        assert_eq!(slab_cells(3 << 19, w), 1 << 21);
        // Never past the whole transform.
        assert_eq!(slab_cells((1 << 22) + 5, w), w);
        assert_eq!(slab_cells(1 << 30, w), w);
        // A transform smaller than one block is one slab.
        assert_eq!(slab_cells(5, 1 << 14), 1 << 14);
        assert_eq!(slab_cells(1 << 20, 1 << 14), 1 << 14);
    }

    #[test]
    fn memory_counts_the_largest_slab_and_its_grouped_reports() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let mut server = ExpanderSketch::new(p.clone(), 6);
        let lists = p.num_buckets as usize * p.num_coords * p.list_cap * 16;
        let outer = |s: &ExpanderSketch| s.outer_oracle().memory_bytes();
        // No reports: no decode scratch.
        assert_eq!(server.memory_bytes(), outer(&server) + lists);
        let mut rng = seeded_rng(6);
        for i in 0..1u64 << 12 {
            let rep = server.respond(i, i % 97, &mut rng);
            server.collect(i, rep);
        }
        let most = server.inner_reports.iter().map(Vec::len).max().unwrap();
        assert!(narrow_cells(most) && WHT_BLOCK < p.inner_cells() as usize);
        // Buffered reports at 8 B, one `i16` slab, grouped reports at 4 B.
        assert_eq!(
            server.memory_bytes(),
            (1 << 12) * 8 + WHT_BLOCK * 2 + most * 4 + outer(&server) + lists
        );
    }

    #[test]
    #[should_panic(expected = "outside W")]
    fn collect_rejects_an_inner_row_outside_w() {
        let p = SketchParams::optimal(1 << 10, 16, 1.0, 0.1);
        let mut server = ExpanderSketch::new(p.clone(), 8);
        let mut rng = seeded_rng(1);
        let mut rep = server.respond(0, 7, &mut rng);
        rep.inner.ell = p.inner_cells().next_power_of_two();
        server.collect(0, rep);
    }

    #[test]
    fn partition_is_balanced() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let server = ExpanderSketch::new(p.clone(), 7);
        let mut counts = vec![0u64; p.num_coords];
        for i in 0..(1u64 << 12) {
            counts[server.coord_of(i)] += 1;
        }
        let expect = (1u64 << 12) as f64 / p.num_coords as f64;
        for (m, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "coordinate {m}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn cells_are_consistent_with_code() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let server = ExpanderSketch::new(p.clone(), 9);
        for x in [0u64, 1, 12345, (1 << 16) - 1] {
            for m in 0..p.num_coords {
                let cell = server.cell_of(m, x);
                assert!(cell < p.inner_cells());
            }
        }
    }

    #[test]
    fn recovers_planted_heavy_hitters_end_to_end() {
        // Sized against the protocol's own detection threshold (see the
        // params module docs on absolute constants).
        let n = 1usize << 17;
        let eps = 4.0;
        let params = SketchParams::optimal(n as u64, 16, eps, 0.1);
        let delta = params.detection_threshold();
        assert!(
            delta < 0.4 * n as f64,
            "test sizing broken: delta = {delta} vs n = {n}"
        );
        let heavy_frac = (delta / n as f64) * 1.6;
        let h1 = 0xBEEFu64 & 0xFFFF;
        let h2 = 0x1234u64;
        let data = planted(n, 16, &[(h1, heavy_frac), (h2, heavy_frac)], 21);
        let est = run_protocol(params.clone(), &data, 22);
        let found: Vec<u64> = est.iter().map(|&(x, _)| x).collect();
        assert!(found.contains(&h1), "missed {h1:#x}: found {found:#x?}");
        assert!(found.contains(&h2), "missed {h2:#x}: found {found:#x?}");
        // Estimates within the advertised error of the truth.
        let err_bound = params.estimation_error_bound();
        for &(x, f) in &est {
            let truth = data.iter().filter(|&&v| v == x).count() as f64;
            assert!(
                (f - truth).abs() <= err_bound,
                "estimate for {x:#x}: {f} vs {truth} (bound {err_bound})"
            );
        }
        // List stays small.
        assert!(est.len() <= 2 + params.num_buckets as usize * params.list_cap);
    }

    #[test]
    fn no_false_heavies_on_uniform_data() {
        // Uniform data has no Δ/2-heavy elements; the output should be
        // empty (or nearly so — the keep threshold guards this).
        let n = 1usize << 15;
        let params = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
        let data = planted(n, 16, &[], 31);
        let est = run_protocol(params, &data, 32);
        assert!(
            est.len() <= 1,
            "uniform data produced {} 'heavy hitters'",
            est.len()
        );
    }

    #[test]
    fn deterministic_public_randomness() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let a = ExpanderSketch::new(p.clone(), 5);
        let b = ExpanderSketch::new(p, 5);
        for x in [3u64, 999, 65535] {
            assert_eq!(a.bucket_of(x), b.bucket_of(x));
            for m in 0..a.params().num_coords {
                assert_eq!(a.cell_of(m, x), b.cell_of(m, x));
            }
        }
    }

    #[test]
    fn report_bits_are_logarithmic() {
        let p = SketchParams::optimal(1 << 16, 24, 1.0, 0.05);
        let server = ExpanderSketch::new(p, 3);
        // Two Hadamard reports: well under 64 bits total payload.
        assert!(
            server.report_bits() <= 64,
            "bits = {}",
            server.report_bits()
        );
    }

    #[test]
    #[should_panic(expected = "double finish")]
    fn double_finish_panics() {
        let p = SketchParams::optimal(1 << 10, 16, 1.0, 0.1);
        let mut server = ExpanderSketch::new(p, 4);
        let _ = server.finish();
        let _ = server.finish();
    }
}
