//! Deterministic parallel chunk mapping — the substrate of the parallel
//! server-side decodes (`finish_with`) and of the collector runtime's
//! buffer pool and tree merge.
//!
//! [`par_chunk_map`] partitions a slice into fixed-size chunks and maps a
//! function over them on a small pool of scoped worker threads, returning
//! the results **in chunk order**. Chunks are claimed dynamically (an
//! atomic cursor), but because each chunk's result depends only on the
//! chunk's own contents and index, the output is identical for every
//! thread count — determinism lives in the chunking, not the scheduling.
//!
//! Protocol code layers exact reproducibility on top of this in two ways:
//!
//! * client side: user `i`'s coins come from [`crate::rng::client_rng`],
//!   a pure function of `(seed, i)`, so chunk boundaries cannot perturb
//!   reports;
//! * server side: accumulators ingest reports as *integer* tallies, so
//!   merge order cannot perturb sums (no floating-point reassociation).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A recycling pool of byte buffers: [`BufferPool::take`] hands out a
/// cleared buffer (reusing returned capacity when available),
/// [`BufferPool::put`] reclaims one. This is the allocation backbone of
/// the streaming engines' wire-chunk cycle (pool → respond → spool →
/// checkpoint → pool): after warm-up, steady-state ingest reuses
/// capacity instead of allocating per chunk.
#[derive(Debug, Default)]
pub struct BufferPool {
    bufs: Vec<Vec<u8>>,
    /// Buffers handed out that had recycled capacity.
    reused: u64,
    /// Buffers handed out freshly allocated (pool was empty).
    fresh: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared buffer — recycled capacity if the pool has any,
    /// freshly allocated otherwise.
    pub fn take(&mut self) -> Vec<u8> {
        match self.bufs.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "pooled buffer not cleared");
                self.reused += 1;
                buf
            }
            None => {
                self.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Return a buffer to the pool (cleared, capacity kept).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.bufs.push(buf);
    }

    /// Buffers currently parked in the pool.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// `(reused, fresh)` counts of buffers handed out so far — the
    /// recycling hit rate.
    pub fn handout_counts(&self) -> (u64, u64) {
        (self.reused, self.fresh)
    }
}

/// Reusable workspace for the server-side finish/decode phase: pooled
/// numeric buffers plus the worker-thread knob the parallel finish
/// sweeps run under.
///
/// The finish path (`HeavyHitterProtocol::finish_with`,
/// `FrequencyOracle::finalize_with`, the engines' `finish_at_epoch`)
/// threads one of these through every decode sweep so repeated
/// mid-stream queries reuse capacity instead of allocating per call.
/// The scratch **never changes results**: every protocol's
/// `finish_with` is bit-for-bit equal to `finish()` for any scratch
/// state and any thread count (pinned by the `finish_equivalence`
/// proptests) — only the schedule and the allocation profile move.
#[derive(Debug, Default)]
pub struct FinishScratch {
    /// Worker threads for the parallel finish sweeps (`0` = the
    /// available hardware parallelism, `1` = serial). Does not affect
    /// output.
    pub threads: usize,
    f64_bufs: Vec<Vec<f64>>,
    /// Buffers handed out that had recycled capacity.
    reused: u64,
    /// Buffers handed out freshly allocated (pool was empty).
    fresh: u64,
}

impl FinishScratch {
    /// A fresh scratch running sweeps at the available hardware
    /// parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch that keeps every finish sweep serial — the reference
    /// schedule the parallel one is pinned against.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A scratch with an explicit worker count (`0` = hardware).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// A cleared `f64` buffer — recycled capacity if available.
    pub fn take_f64(&mut self) -> Vec<f64> {
        match self.f64_bufs.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "pooled buffer not cleared");
                self.reused += 1;
                buf
            }
            None => {
                self.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Return an `f64` buffer (cleared, capacity kept).
    pub fn put_f64(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.f64_bufs.push(buf);
    }

    /// `(reused, fresh)` counts of buffers handed out so far — the
    /// scratch-pool hit rate the bench paths surface.
    pub fn handout_counts(&self) -> (u64, u64) {
        (self.reused, self.fresh)
    }
}

/// Fold shards pairwise, level by level (`(s0⊕s1) ⊕ (s2⊕s3) ⊕ …`) —
/// the one tree reduction the collector runtime (and with it every
/// batched and distributed driver) merges its shards with. `None` for
/// an empty input.
pub fn merge_tree<S>(mut shards: Vec<S>, mut merge: impl FnMut(S, S) -> S) -> Option<S> {
    while shards.len() > 1 {
        let mut next = Vec::with_capacity(shards.len().div_ceil(2));
        let mut it = shards.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => merge(a, b),
                None => a,
            });
        }
        shards = next;
    }
    shards.pop()
}

/// The worker count [`par_chunk_map`] will use for `num_items` items in
/// chunks of `chunk_size` when asked for `threads` workers (`0` = the
/// available hardware parallelism). Exposed so callers that *report*
/// parallelism (the sim drivers' resource accounting) cannot drift from
/// the scheduling policy actually used.
pub fn planned_threads(threads: usize, num_items: usize, chunk_size: usize) -> usize {
    let hw = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    hw.min(num_items.div_ceil(chunk_size.max(1))).max(1)
}

/// Map `f` over `items` in chunks of `chunk_size`, in parallel, returning
/// one result per chunk in chunk order. `f` receives `(chunk_index,
/// chunk)`; chunk `c` covers `items[c * chunk_size ..]`.
///
/// `threads == 0` means "use the available hardware parallelism". The
/// result is independent of `threads`.
pub fn par_chunk_map<T, U, F>(items: &[T], chunk_size: usize, threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let threads = planned_threads(threads, items.len(), chunk_size);
    claim_map(items.len().div_ceil(chunk_size), threads, |c| {
        let lo = c * chunk_size;
        f(c, &items[lo..(lo + chunk_size).min(items.len())])
    })
}

/// Parallel for: map `f` over the indices `0 .. num_items`, returning
/// one result per index in index order — the finish path's sweep
/// primitive (domain-scan chunks, per-coordinate oracle decodes,
/// per-bucket list decodes), where the work units are index ranges
/// rather than slice chunks.
///
/// Indices are claimed dynamically, but each result depends only on its
/// own index, so the output is identical for every `threads`
/// (`0` = the available hardware parallelism). Keep the work per index
/// coarse — one index is one scheduling unit.
pub fn par_map_indexed<U, F>(num_items: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    claim_map(num_items, planned_threads(threads, num_items, 1), f)
}

/// The loop under every parallel map here: `f(i)` for each `i < n` on
/// `threads` scoped workers that claim indices from an atomic cursor,
/// each result stored in its index's slot. The slots are allocated once
/// up front, so a call's allocation count does not depend on how the
/// workers interleave (a result channel's blocks and waiter lists do).
fn claim_map<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());
    rayon::scope(|s| {
        for _ in 0..threads {
            let (cursor, slots, f) = (&cursor, &slots, &f);
            s.spawn(move |_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                slots.lock().expect("a worker panicked")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("item {i} produced no result")))
        .collect()
}

/// Map `f` over the chunks of a slice, each chunk paired with one owned
/// seed value, in parallel — the substrate of the fused respond+encode
/// phase, where each chunk writes into a pooled wire buffer moved in as
/// its seed. `seeds` must hold exactly one value per chunk
/// (`items.len().div_ceil(chunk_size)`); `f` receives
/// `(chunk_index, chunk, seed)` and results come back in chunk order,
/// independent of `threads`.
pub fn par_chunk_zip_map<T, S, U, F>(
    items: &[T],
    chunk_size: usize,
    threads: usize,
    seeds: Vec<S>,
    f: F,
) -> Vec<U>
where
    T: Sync,
    S: Send,
    U: Send,
    F: Fn(usize, &[T], S) -> U + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let num_chunks = items.len().div_ceil(chunk_size);
    assert_eq!(
        seeds.len(),
        num_chunks,
        "need one seed per chunk ({num_chunks} chunks)"
    );
    let work: Vec<(&[T], S)> = items.chunks(chunk_size).zip(seeds).collect();
    par_map_owned(work, threads, |c, (chunk, seed)| f(c, chunk, seed))
}

/// Map `f` over owned `items` in parallel, returning one result per
/// item in item order. `f` receives `(item_index, item)` by value — the
/// owned-item counterpart of [`par_chunk_map`] for work units that must
/// be moved into the worker (e.g. a collector's shard plus its chunk
/// queue). `threads == 0` means "use the available hardware
/// parallelism"; the result is independent of `threads`.
pub fn par_map_owned<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let threads = planned_threads(threads, n, 1);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let items: Mutex<Vec<Option<T>>> = Mutex::new(items.into_iter().map(Some).collect());
    claim_map(n, threads, |i| {
        let item = items.lock().expect("a worker panicked")[i].take();
        f(i, item.expect("each item is claimed once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pool_recycles_capacity() {
        let mut pool = BufferPool::new();
        let mut a = pool.take();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.len(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.capacity(), cap, "recycled buffer must keep capacity");
        assert!(pool.is_empty());
        assert_eq!(pool.handout_counts(), (1, 1));
    }

    #[test]
    fn finish_scratch_recycles_buffers() {
        let mut scratch = FinishScratch::new();
        assert_eq!(scratch.threads, 0);
        assert_eq!(FinishScratch::serial().threads, 1);
        let mut f = scratch.take_f64();
        f.push(1.0);
        let cap = f.capacity();
        scratch.put_f64(f);
        let f = scratch.take_f64();
        assert!(f.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(f.capacity(), cap, "recycled buffer must keep capacity");
        // Fresh then reused.
        assert_eq!(scratch.handout_counts(), (1, 1));
    }

    #[test]
    fn indexed_map_is_ordered_and_thread_independent() {
        let expect: Vec<usize> = (0..137).map(|i| i * i).collect();
        for threads in [0, 1, 2, 5] {
            let got = par_map_indexed(137, threads, |i| i * i);
            assert_eq!(got, expect, "threads = {threads}");
        }
        assert!(par_map_indexed(0, 0, |i| i).is_empty());
    }

    #[test]
    fn maps_in_chunk_order() {
        let items: Vec<u64> = (0..1000).collect();
        let sums = par_chunk_map(&items, 64, 0, |c, chunk| (c, chunk.iter().sum::<u64>()));
        assert_eq!(sums.len(), 1000usize.div_ceil(64));
        for (i, &(c, _)) in sums.iter().enumerate() {
            assert_eq!(c, i);
        }
        let total: u64 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn independent_of_thread_count() {
        let items: Vec<u64> = (0..777).collect();
        let expect: Vec<u64> = par_chunk_map(&items, 10, 1, |c, chunk| {
            chunk.iter().sum::<u64>() + c as u64
        });
        for threads in [2, 3, 8] {
            let got = par_chunk_map(&items, 10, threads, |c, chunk| {
                chunk.iter().sum::<u64>() + c as u64
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = par_chunk_map(&[] as &[u64], 8, 0, |_, chunk| chunk.len());
        assert!(out.is_empty());
    }

    #[test]
    fn single_oversized_chunk() {
        let items = [1u64, 2, 3];
        let out = par_chunk_map(&items, 100, 4, |c, chunk| (c, chunk.to_vec()));
        assert_eq!(out, vec![(0, vec![1, 2, 3])]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn rejects_zero_chunk() {
        let _ = par_chunk_map(&[1u64], 0, 0, |_, _| ());
    }

    #[test]
    fn owned_map_preserves_order_and_moves_items() {
        let items: Vec<Vec<u64>> = (0..9).map(|i| vec![i; i as usize + 1]).collect();
        let expect: Vec<u64> = items.iter().map(|v| v.iter().sum()).collect();
        for threads in [1, 2, 4] {
            let got = par_map_owned(items.clone(), threads, |i, v: Vec<u64>| {
                assert_eq!(v[0], i as u64);
                v.into_iter().sum::<u64>()
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
        assert!(par_map_owned(Vec::<u8>::new(), 0, |_, x| x).is_empty());
    }

    #[test]
    fn zip_map_pairs_chunks_with_seeds() {
        let items: Vec<u64> = (0..95).collect();
        let seeds: Vec<u64> = (0..10).map(|c| c * 1000).collect();
        for threads in [1, 3] {
            let got = par_chunk_zip_map(&items, 10, threads, seeds.clone(), |c, chunk, seed| {
                assert_eq!(seed, c as u64 * 1000);
                chunk.iter().sum::<u64>() + seed
            });
            assert_eq!(got.len(), 10);
            assert_eq!(got[0], (0..10).sum::<u64>());
            assert_eq!(got[9], (90..95).sum::<u64>() + 9000);
        }
    }

    #[test]
    #[should_panic(expected = "one seed per chunk")]
    fn zip_map_rejects_mismatched_seed_count() {
        let _ = par_chunk_zip_map(&[1u64, 2, 3], 2, 1, vec![0u8], |_, _, _| ());
    }

    #[test]
    fn merge_tree_folds_pairwise() {
        // Strings make the tree shape observable: 5 leaves fold as
        // ((01)(23))(4).
        let leaves: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let folded = merge_tree(leaves, |a, b| format!("({a}{b})")).unwrap();
        assert_eq!(folded, "(((01)(23))4)");
        assert_eq!(merge_tree(Vec::<u32>::new(), |a, b| a + b), None);
        assert_eq!(merge_tree(vec![7u32], |a, b| a + b), Some(7));
    }
}
