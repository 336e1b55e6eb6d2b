//! Fast Walsh–Hadamard transform.
//!
//! The Hashtogram frequency oracle (Theorems 3.7/3.8) has each user report
//! a single randomized Hadamard coefficient of their bucket's indicator
//! vector; the server inverts all coefficients at once with one fast
//! transform. `H` here is the ±1 (non-normalized) Hadamard matrix of order
//! `2^k` with `H[i][j] = (−1)^{popcount(i & j)}`.

use std::ops::{Add, Sub};

/// Single entry of the Hadamard matrix: `(−1)^{popcount(i & j)}`.
///
/// `i, j` must be below the matrix order; the function itself is total on
/// u64 so callers enforce the range.
#[inline]
pub fn hadamard_entry(i: u64, j: u64) -> i8 {
    if (i & j).count_ones().is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// In-place fast Walsh–Hadamard transform (unnormalized).
///
/// `data.len()` must be a power of two. Applying the transform twice
/// multiplies by `len`: `WHT(WHT(x)) = len · x`.
pub fn fwht(data: &mut [f64]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "WHT length must be a power of two: {n}"
    );
    let mut h = 1;
    while h < n {
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let x = data[j];
                let y = data[j + h];
                data[j] = x + y;
                data[j + h] = x - y;
            }
            i += h * 2;
        }
        h *= 2;
    }
}

/// Cells per cache block of [`fwht_int`]: `2^16` cells (128 KiB of
/// `i16`, 256 KiB of `i32`), which stay resident in a per-core L2 while
/// the levels inside the block run; the levels above it then run over
/// the whole buffer. It is also the smallest slab of the sketch's
/// decode, whose slabs of up to `2^18` cells (512 KiB of `i16`) take one
/// radix-4 pass over the whole slab past their blocks.
pub const WHT_BLOCK: usize = 1 << 16;

/// A cell of the exact integer transform [`fwht_int`]: `i16` or `i32`.
pub trait WhtCell:
    Copy + Default + Ord + Into<f64> + Add<Output = Self> + Sub<Output = Self>
{
    /// `H8_ROWS[k·2 + s]` = row `k` of `H_8`, negated when `s = 0`: the
    /// three lowest butterfly levels applied to a `±1` in cell `k` of an
    /// 8-cell row (see [`add_folded`]).
    const H8_ROWS: [[Self; FOLD]; 2 * FOLD];
}

/// The `H8_ROWS` table of one cell type, built at compile time.
macro_rules! wht_cell {
    ($t:ty) => {
        impl WhtCell for $t {
            const H8_ROWS: [[$t; FOLD]; 2 * FOLD] = {
                let mut rows = [[0; FOLD]; 2 * FOLD];
                let mut v = 0;
                while v < 2 * FOLD {
                    let mut j = 0;
                    while j < FOLD {
                        let plus = ((v >> 1) & j).count_ones() % 2 == 0;
                        rows[v][j] = if plus == (v & 1 == 1) { 1 } else { -1 };
                        j += 1;
                    }
                    v += 1;
                }
                rows
            };
        }
    };
}

wht_cell!(i16);
wht_cell!(i32);

/// Cells per row of [`add_folded`], and so the first level [`fwht_int`]
/// runs after it: the levels `1, 2, 4` are folded into the scatter.
pub const FOLD: usize = 8;

/// Add `±1` reports into `cells` with the butterfly levels below [`FOLD`]
/// already applied. A report `v = lo·2 + [sign > 0]` adds its signed
/// `H_8` row `H8_ROWS[v mod 16]` into the 8 cells `lo & !7 ..= lo | 7`
/// (one 16-byte add for `i16`); `negate` flips every report's sign.
/// `fwht_int(cells, FOLD)` then finishes the transform of the tally.
pub fn add_folded<T: WhtCell>(cells: &mut [T], reports: &[u32], negate: bool) {
    let (rows, rest) = cells.as_chunks_mut::<FOLD>();
    assert!(rest.is_empty(), "{} cells are not whole rows", cells.len());
    let flip = u32::from(negate);
    for &v in reports {
        let row = &mut rows[(v >> 4) as usize];
        let add = &T::H8_ROWS[((v ^ flip) & 15) as usize];
        for (c, &a) in row.iter_mut().zip(add) {
            *c = *c + a;
        }
    }
}

/// The butterfly levels `from, 2·from, …` of the in-place fast
/// Walsh–Hadamard transform over exact integers (unnormalized),
/// cache-blocked — with `from = 1`, the same transform as [`fwht`].
///
/// The levels commute, so a caller that already applied the levels below
/// `from` (say, by adding rows of `H_from` while scattering reports into
/// the cells) finishes the transform here. `from` must be a power of two;
/// at `from >= data.len()` nothing is left to do.
///
/// Every intermediate value is bounded by `Σ|x|` over the untransformed
/// input, so the result is exact whenever that sum fits `T` (a tally of
/// at most `T::MAX` ±1 reports, say); keeping it there is the caller's
/// precondition. The butterflies use plain `+`/`-`, so a build with
/// overflow checks panics when it is broken. Integer adds are exact, so
/// the result does not depend on the order the levels run in.
///
/// The levels below 128, for `from ≤ FOLD`, run in one pass over
/// 128-cell chunks copied into a local array, which stays in vector
/// registers where it fits them: 128 `i16` cells in SSE2's or AVX2's
/// 16 registers, 128 `i32` cells in AVX2's. Where it does not, those
/// levels run as the passes above them do. The levels below
/// [`WHT_BLOCK`] pair cells inside one block, so each block runs all of
/// them while it is cache-resident; the remaining levels then run over
/// the whole buffer. Past the register block, levels go two at a time
/// (radix 4), so each pass loads and stores every cell once per pair of
/// levels.
///
/// On x86 each call checks once whether the CPU has AVX2 and runs an
/// AVX2 instantiation of the one generic body if so, the portable
/// instantiation otherwise; other targets build only the portable one.
pub fn fwht_int<T: WhtCell>(data: &mut [T], from: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { fwht_int_avx2(data, from) };
    }
    fwht_int_portable(data, from);
}

/// [`fwht_int`] compiled for AVX2, whose 16 vector registers hold 512
/// bytes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn fwht_int_avx2<T: WhtCell>(data: &mut [T], from: usize) {
    fwht_int_body::<T, 512>(data, from);
}

/// [`fwht_int`] compiled for the build's baseline target features,
/// assumed to hold 256 bytes in vector registers (x86-64's 16 SSE2
/// registers).
fn fwht_int_portable<T: WhtCell>(data: &mut [T], from: usize) {
    fwht_int_body::<T, 256>(data, from);
}

/// The one body of [`fwht_int`], inlined into each instantiation so
/// that it compiles with that instantiation's target features. The
/// low levels are register-blocked when a [`REG_BLOCK`]-cell chunk fits
/// the instantiation's `REG_BYTES` of vector registers: 128 `i32` cells
/// do not fit SSE2's, and spilled they run slower than radix-4 passes.
#[inline(always)]
fn fwht_int_body<T: WhtCell, const REG_BYTES: usize>(data: &mut [T], from: usize) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "WHT length must be a power of two: {n}"
    );
    assert!(
        from.is_power_of_two(),
        "WHT level {from} is not a power of two"
    );
    let in_registers = REG_BLOCK * std::mem::size_of::<T>() <= REG_BYTES;
    let block = n.min(WHT_BLOCK);
    if from < block {
        for row in data.chunks_exact_mut(block) {
            let mut h = from;
            if in_registers && from <= FOLD && REG_BLOCK <= block {
                register_levels(row, from);
                h = REG_BLOCK;
            }
            levels_from(row, h);
        }
    }
    levels_from(data, block.max(from));
}

/// Cells per chunk of [`fwht_int`]'s register-blocked low levels: 128
/// `i16` cells are 8 AVX2 registers or all 16 of SSE2, 128 `i32` cells
/// all 16 of AVX2.
const REG_BLOCK: usize = 128;

/// The butterfly levels `from, 2·from, …` below [`REG_BLOCK`] of
/// [`fwht_int`] for `from ≤ FOLD`, one pass over `REG_BLOCK`-cell
/// chunks: each chunk is copied into a local array, runs the levels
/// `8 … 64` there, and is stored back. Those levels are spelled out with
/// constant strides so that each compiles to whole-vector butterflies
/// on registers. The levels below [`FOLD`], which only a transform from
/// level 1 runs, go first over the chunk's 8-cell rows.
#[inline(always)]
fn register_levels<T: WhtCell>(data: &mut [T], from: usize) {
    // `data` is a power of two of at least `REG_BLOCK` cells, so whole
    // chunks cover it.
    for chunk in data.as_chunks_mut::<REG_BLOCK>().0 {
        if from < FOLD {
            for row in chunk.chunks_exact_mut(FOLD) {
                levels_from(row, from);
            }
        }
        let mut x = *chunk;
        register_level(&mut x, 8);
        register_level(&mut x, 16);
        register_level(&mut x, 32);
        register_level(&mut x, 64);
        *chunk = x;
    }
}

/// Butterfly level `h` over one register-blocked chunk.
#[inline(always)]
fn register_level<T: WhtCell>(x: &mut [T; REG_BLOCK], h: usize) {
    for pair in x.chunks_exact_mut(2 * h) {
        let (a, b) = pair.split_at_mut(h);
        for (a, b) in a.iter_mut().zip(b) {
            (*a, *b) = (*a + *b, *a - *b);
        }
    }
}

/// The butterfly levels `h, 2h, …` below `data.len()` of [`fwht_int`]:
/// pairs of levels fused into one radix-4 pass, an odd last level as a
/// radix-2 pass.
#[inline(always)]
fn levels_from<T: WhtCell>(data: &mut [T], mut h: usize) {
    let n = data.len();
    while 4 * h <= n {
        for quad in data.chunks_exact_mut(4 * h) {
            let (ab, cd) = quad.split_at_mut(2 * h);
            let (a, b) = ab.split_at_mut(h);
            let (c, d) = cd.split_at_mut(h);
            for (((a, b), c), d) in a.iter_mut().zip(b).zip(c).zip(d) {
                let (p, q) = (*a + *b, *a - *b);
                let (r, s) = (*c + *d, *c - *d);
                (*a, *b, *c, *d) = (p + r, q + s, p - r, q - s);
            }
        }
        h *= 4;
    }
    if h < n {
        let (lo, hi) = data.split_at_mut(h);
        for (x, y) in lo.iter_mut().zip(hi) {
            (*x, *y) = (*x + *y, *x - *y);
        }
    }
}

/// In-place fast Walsh–Hadamard transform, blocked across worker
/// threads — bit-for-bit equal to [`fwht`] for every `threads`
/// (`0` = the available hardware parallelism).
///
/// At butterfly level `h` the transform touches disjoint `2h`-blocks:
/// `data[0..2h]`, `data[2h..4h]`, … — each block's butterflies read and
/// write only that block, so whole blocks can run on different workers
/// with no shared state, and every element sees the *identical*
/// floating-point operation sequence as the serial loop. Small
/// transforms (or `threads <= 1`) fall straight through to the serial
/// kernel — blocking only pays when the per-level work dwarfs a scope
/// spawn.
pub fn fwht_threaded(data: &mut [f64], threads: usize) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "WHT length must be a power of two: {n}"
    );
    let threads = hh_par_threads(threads, n);
    if threads <= 1 || n < (1 << 12) {
        fwht(data);
        return;
    }
    let mut h = 1;
    while h < n {
        let num_blocks = n / (h * 2);
        if num_blocks <= 1 {
            // One block left (the last levels): butterflies of the block
            // are themselves independent — split the `j` range.
            let (lo, hi) = data.split_at_mut(h);
            let per = h.div_ceil(threads).max(1);
            rayon::scope(|s| {
                for (a, b) in lo.chunks_mut(per).zip(hi.chunks_mut(per)) {
                    s.spawn(move |_| {
                        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                            let (u, v) = (*x, *y);
                            *x = u + v;
                            *y = u - v;
                        }
                    });
                }
            });
        } else {
            // Distribute contiguous runs of 2h-blocks over the workers.
            let per = num_blocks.div_ceil(threads).max(1) * (h * 2);
            rayon::scope(|s| {
                for run in data.chunks_mut(per) {
                    s.spawn(move |_| {
                        for block in run.chunks_mut(h * 2) {
                            let (lo, hi) = block.split_at_mut(h);
                            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                                let (u, v) = (*x, *y);
                                *x = u + v;
                                *y = u - v;
                            }
                        }
                    });
                }
            });
        }
        h *= 2;
    }
}

/// The effective worker count (`0` = hardware), local so `wht` does not
/// depend on `par`'s scheduling helpers.
fn hh_par_threads(threads: usize, n: usize) -> usize {
    let hw = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    hw.min(n).max(1)
}

/// Inverse transform: `fwht` followed by division by `len`.
pub fn ifwht(data: &mut [f64]) {
    let n = data.len() as f64;
    fwht(data);
    for v in data.iter_mut() {
        *v /= n;
    }
}

/// Naive O(n²) transform used as a test oracle.
pub fn wht_naive(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    assert!(n.is_power_of_two());
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| f64::from(hadamard_entry(i as u64, j as u64)) * data[j])
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn entries_are_symmetric() {
        for i in 0..32u64 {
            for j in 0..32u64 {
                assert_eq!(hadamard_entry(i, j), hadamard_entry(j, i));
            }
        }
    }

    #[test]
    fn rows_are_orthogonal() {
        let n = 64u64;
        for a in 0..n {
            for b in 0..n {
                let dot: i64 = (0..n)
                    .map(|j| i64::from(hadamard_entry(a, j)) * i64::from(hadamard_entry(b, j)))
                    .sum();
                if a == b {
                    assert_eq!(dot, n as i64);
                } else {
                    assert_eq!(dot, 0);
                }
            }
        }
    }

    #[test]
    fn fast_matches_naive() {
        let mut rng = SmallRng::seed_from_u64(3);
        for k in 0..8u32 {
            let n = 1usize << k;
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = wht_naive(&data);
            let mut got = data;
            fwht(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn double_transform_is_scaling() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 256usize;
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut x = data.clone();
        fwht(&mut x);
        ifwht(&mut x);
        for (a, b) in x.iter().zip(&data) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn indicator_transform_is_row() {
        // WHT(e_b)[l] = H[l][b].
        let n = 128usize;
        let b = 77usize;
        let mut x = vec![0.0; n];
        x[b] = 1.0;
        fwht(&mut x);
        for (l, &v) in x.iter().enumerate() {
            assert_eq!(v as i8, hadamard_entry(l as u64, b as u64));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![0.0; 3];
        fwht(&mut x);
    }

    #[test]
    fn threaded_is_bit_identical_to_serial() {
        let mut rng = SmallRng::seed_from_u64(23);
        // Cover both the small fall-through and the blocked path (the
        // blocked kernel engages at 2^12).
        for k in [0u32, 3, 8, 13] {
            let n = 1usize << k;
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut want = data.clone();
            fwht(&mut want);
            for threads in [0, 1, 2, 3, 7] {
                let mut got = data.clone();
                fwht_threaded(&mut got, threads);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "k = {k}, threads = {threads}"
                );
            }
        }
    }

    /// Random ±`bound` integers, as `i32` and as the same `f64` values.
    fn random_ints(rng: &mut SmallRng, n: usize, bound: i32) -> (Vec<i32>, Vec<f64>) {
        let ints: Vec<i32> = (0..n)
            .map(|_| rng.gen_range(0..(2 * bound as u64 + 1)) as i32 - bound)
            .collect();
        let floats = ints.iter().map(|&v| f64::from(v)).collect();
        (ints, floats)
    }

    #[test]
    fn integer_matches_naive() {
        let mut rng = SmallRng::seed_from_u64(29);
        for k in 0..9u32 {
            let (mut got, data) = random_ints(&mut rng, 1 << k, 50);
            let want = wht_naive(&data);
            fwht_int(&mut got, 1);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(f64::from(g), w, "k = {k}, cell {i}");
            }
        }
    }

    #[test]
    fn integer_matches_f64_below_at_and_above_the_block() {
        // Integer f64 sums are exact below 2^53, so the float kernel is
        // an exact oracle here. Sizes cover one partial block, exactly
        // one block, and an even and an odd number of levels above it.
        let mut rng = SmallRng::seed_from_u64(31);
        for n in [
            WHT_BLOCK / 4,
            WHT_BLOCK,
            WHT_BLOCK * 2,
            WHT_BLOCK * 4,
            WHT_BLOCK * 8,
        ] {
            let (mut got, mut want) = random_ints(&mut rng, n, 1);
            fwht_int(&mut got, 1);
            fwht(&mut want);
            assert!(
                got.iter().zip(&want).all(|(&g, &w)| f64::from(g) == w),
                "n = {n}"
            );
        }
    }

    #[test]
    fn integer_is_exact_at_the_i32_bound() {
        // `Σ|x| = i32::MAX`: every intermediate stays representable.
        let mut x = vec![0i32; 8];
        x[3] = i32::MAX - 5;
        x[6] = -5;
        let want: Vec<i64> = (0..8u64)
            .map(|l| {
                i64::from(hadamard_entry(l, 3)) * i64::from(i32::MAX - 5)
                    - 5 * i64::from(hadamard_entry(l, 6))
            })
            .collect();
        fwht_int(&mut x, 1);
        let got: Vec<i64> = x.iter().map(|&v| i64::from(v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn integer_is_exact_at_the_i16_bound() {
        // `Σ|x| = i16::MAX` in `i16` cells: every intermediate stays
        // representable.
        let mut x = vec![0i16; 8];
        x[3] = i16::MAX - 5;
        x[6] = -5;
        let want: Vec<i32> = (0..8u64)
            .map(|l| {
                i32::from(hadamard_entry(l, 3)) * i32::from(i16::MAX - 5)
                    - 5 * i32::from(hadamard_entry(l, 6))
            })
            .collect();
        fwht_int(&mut x, 1);
        let got: Vec<i32> = x.iter().map(|&v| i32::from(v)).collect();
        assert_eq!(got, want);
    }

    /// Cells whose absolute values sum to exactly `i16::MAX`: `±1` in up
    /// to 64 random cells, the rest of the mass in one more (all positive
    /// with `positive`, so output cell 0 is `i16::MAX` itself).
    fn at_the_i16_bound(rng: &mut SmallRng, n: usize, positive: bool) -> Vec<i32> {
        let mut x = vec![0i32; n];
        let mut sign = || if positive || rng.gen::<bool>() { 1 } else { -1 };
        let ones = (n - 1).min(64);
        for cell in &mut x[1..=ones] {
            *cell = sign();
        }
        x[0] = sign() * (i32::from(i16::MAX) - ones as i32);
        let mut shuffled = vec![0i32; n];
        let offset = rng.gen_range(0..n);
        for (k, &v) in x.iter().enumerate() {
            shuffled[(k * 5 + offset) % n] = v;
        }
        shuffled
    }

    #[test]
    fn portable_and_dispatched_kernels_match_the_naive_transform() {
        // Lengths below the 128-cell register block (its fallback), at
        // it, across `WHT_BLOCK` and up to a `2^18`-cell decode slab;
        // `from = FOLD` starts from cells whose rows of 8 already ran the
        // levels below it. The f64 kernel stands in for `wht_naive` past
        // `2^10` cells: integer sums below 2^53 are exact, and
        // `fast_matches_naive` pins it to the naive transform.
        let mut rng = SmallRng::seed_from_u64(43);
        for k in 3..=18u32 {
            let n = 1usize << k;
            for positive in [true, false] {
                let x = at_the_i16_bound(&mut rng, n, positive);
                let floats: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
                let want = if k <= 10 {
                    wht_naive(&floats)
                } else {
                    let mut want = floats.clone();
                    fwht(&mut want);
                    want
                };
                if positive {
                    assert_eq!(want[0], f64::from(i16::MAX));
                }
                let mut rows = x.clone();
                for row in rows.chunks_exact_mut(FOLD) {
                    fwht_int(row, 1);
                }
                for (from, input) in [(1, &x), (FOLD, &rows)] {
                    let wide = input.clone();
                    let narrow: Vec<i16> = input.iter().map(|&v| v as i16).collect();
                    check_kernels(wide, &want, &format!("i32, n = {n}, from = {from}"), from);
                    check_kernels(narrow, &want, &format!("i16, n = {n}, from = {from}"), from);
                }
            }
        }
    }

    /// The portable kernel and the dispatched [`fwht_int`] on `x` from
    /// level `from` both equal `want`.
    fn check_kernels<T: WhtCell>(x: Vec<T>, want: &[f64], what: &str, from: usize) {
        let mut portable = x.clone();
        fwht_int_portable(&mut portable, from);
        let mut dispatched = x;
        fwht_int(&mut dispatched, from);
        assert!(
            portable == dispatched,
            "{what}: portable and dispatched differ"
        );
        assert!(
            portable.into_iter().zip(want).all(|(g, &w)| g.into() == w),
            "{what}: not the transform"
        );
    }

    #[test]
    fn narrow_cells_match_wide_cells_across_blocks() {
        // Sparse ±1 data over four blocks with `Σ|x| < i16::MAX`.
        let mut rng = SmallRng::seed_from_u64(37);
        let n = WHT_BLOCK * 4;
        let mut wide = vec![0i32; n];
        for _ in 0..20_000 {
            wide[rng.gen_range(0..n)] = if rng.gen::<bool>() { 1 } else { -1 };
        }
        let mut narrow: Vec<i16> = wide.iter().map(|&v| v as i16).collect();
        fwht_int(&mut wide, 1);
        fwht_int(&mut narrow, 1);
        assert!(wide.iter().zip(&narrow).all(|(&w, &v)| w == i32::from(v)));
    }

    /// Random packed reports `lo·2 + [sign > 0]` over `n` cells (signs
    /// flipped with `negate`): their folded scatter into cells of `T`
    /// followed by the transform from [`FOLD`], and the full transform of
    /// their plain `±1` tally in `i32` cells.
    fn folded_and_full<T: WhtCell>(
        rng: &mut SmallRng,
        n: usize,
        negate: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        let reports: Vec<u32> = (0..300).map(|_| rng.gen_range(0..2 * n as u32)).collect();
        let mut folded = vec![T::default(); n];
        add_folded(&mut folded, &reports, negate);
        fwht_int(&mut folded, FOLD);
        let mut full = vec![0i32; n];
        for &v in &reports {
            full[(v >> 1) as usize] += if (v & 1 == 1) != negate { 1 } else { -1 };
        }
        fwht_int(&mut full, 1);
        (
            folded.into_iter().map(Into::into).collect(),
            full.into_iter().map(f64::from).collect(),
        )
    }

    #[test]
    fn folded_scatter_then_transform_from_fold_is_the_full_transform() {
        let mut rng = SmallRng::seed_from_u64(41);
        for n in [FOLD, 64, 1 << 10, WHT_BLOCK, WHT_BLOCK * 2] {
            for negate in [false, true] {
                let (folded, full) = folded_and_full::<i16>(&mut rng, n, negate);
                assert_eq!(folded, full, "i16, n = {n}, negate = {negate}");
                let (folded, full) = folded_and_full::<i32>(&mut rng, n, negate);
                assert_eq!(folded, full, "i32, n = {n}, negate = {negate}");
            }
        }
    }

    #[test]
    fn h8_rows_are_the_signed_rows_of_h8() {
        for v in 0..2 * FOLD {
            for j in 0..FOLD {
                let sign = if v & 1 == 1 { 1 } else { -1 };
                let want = sign * i32::from(hadamard_entry((v >> 1) as u64, j as u64));
                assert_eq!(i32::H8_ROWS[v][j], want, "row {v}, cell {j}");
                assert_eq!(i32::from(i16::H8_ROWS[v][j]), want, "row {v}, cell {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn integer_rejects_non_power_of_two() {
        let mut x = vec![0i32; 12];
        fwht_int(&mut x, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn threaded_rejects_non_power_of_two() {
        let mut x = vec![0.0; 6];
        fwht_threaded(&mut x, 2);
    }
}
