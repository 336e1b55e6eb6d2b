//! The protocol interface shared by `PrivateExpanderSketch` and its
//! baselines: the shared [`Aggregator`] ingest half (see
//! [`hh_freq::traits`] for the encoder/aggregator architecture) plus
//! the heavy-hitter finish half.

pub use hh_freq::traits::Aggregator;
pub use hh_freq::wire::{FrameError, WireError, WireFrames, WireReport, WireShard};

pub use hh_math::par::FinishScratch;

/// A one-round LDP heavy-hitters protocol (Definition 3.1): the shared
/// [`Aggregator`] ingest half plus the decode to a heavy-hitter list.
pub trait HeavyHitterProtocol: Aggregator {
    /// Server: run the aggregation/decoding pipeline with an explicit
    /// [`FinishScratch`] — the parallel, allocation-recycling finish
    /// path; returns the estimated heavy-hitter list
    /// `Est = {(x, f̂_S(x))}`, sorted by `(estimate desc, value asc)` —
    /// the tie-break keeps the order stable across runs and thread
    /// counts.
    ///
    /// The scratch carries the worker-thread knob the decode sweeps run
    /// under and pooled buffers reused across calls; neither may change
    /// the result: the list is **bit-for-bit equal** for every scratch
    /// state and thread count (the `finish_equivalence` proptests pin
    /// every implementation).
    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)>;

    /// Server: [`HeavyHitterProtocol::finish_with`] with a fresh
    /// [`FinishScratch`].
    fn finish(&mut self) -> Vec<(u64, f64)> {
        self.finish_with(&mut FinishScratch::default())
    }

    /// The protocol's detection threshold `Δ`: every element with
    /// `f_S(x) >= Δ` should appear in the output (the quantity the
    /// theorems bound).
    fn detection_threshold(&self) -> f64;
}
