//! Accuracy metrics over repeated trials, plus the finish-phase
//! accounting distilled from a streaming run's counters.

use crate::stream::StreamStats;
use hh_core::verify;
use hh_math::stats;

/// Accuracy summary of one protocol output against ground truth at
/// threshold `Δ`.
#[derive(Debug, Clone, Copy)]
pub struct TrialSummary {
    /// Fraction of Δ-heavy elements recovered.
    pub recall: f64,
    /// Fraction of reported elements that are genuinely (Δ/4)-frequent.
    pub precision: f64,
    /// Worst estimation error over the output list.
    pub max_error: f64,
    /// Output list length.
    pub list_len: usize,
}

/// Summarize one run.
pub fn summarize(data: &[u64], estimates: &[(u64, f64)], delta: f64) -> TrialSummary {
    let report = verify::check_contract(data, estimates, delta);
    TrialSummary {
        recall: verify::heavy_recall(data, estimates, delta),
        precision: verify::precision_at_half(data, estimates, delta),
        max_error: report.max_estimation_error,
        list_len: report.list_len,
    }
}

/// Aggregate over trials (median accuracy, worst-case recall, measured
/// failure rate of the Definition 3.1 contract).
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Median recall across trials.
    pub median_recall: f64,
    /// Minimum recall (worst trial).
    pub min_recall: f64,
    /// Median of per-trial max estimation error.
    pub median_max_error: f64,
    /// 90th percentile of max estimation error.
    pub p90_max_error: f64,
    /// Fraction of trials with perfect recall — `1 −` this is the
    /// measured analogue of the theorems' β.
    pub success_rate: f64,
    /// Median output list length.
    pub median_list_len: f64,
}

/// Combine trial summaries.
pub fn aggregate(summaries: &[TrialSummary]) -> Aggregate {
    assert!(!summaries.is_empty());
    let recalls: Vec<f64> = summaries.iter().map(|s| s.recall).collect();
    let errors: Vec<f64> = summaries.iter().map(|s| s.max_error).collect();
    let lens: Vec<f64> = summaries.iter().map(|s| s.list_len as f64).collect();
    Aggregate {
        trials: summaries.len(),
        median_recall: stats::median(&recalls),
        min_recall: recalls.iter().copied().fold(f64::INFINITY, f64::min),
        median_max_error: stats::median(&errors),
        p90_max_error: stats::quantile(&errors, 0.9),
        success_rate: recalls.iter().filter(|&&r| r >= 1.0).count() as f64 / summaries.len() as f64,
        median_list_len: stats::median(&lens),
    }
}

/// Finish-phase accounting of one streaming run: how much of the
/// server-side decode work was answered incrementally, distilled from
/// [`StreamStats`] for bench reports.
#[derive(Debug, Clone, Copy)]
pub struct FinishPhase {
    /// Mid-stream `finish_at_epoch` queries answered.
    pub queries: u64,
    /// Total wall-clock seconds inside `finish_at_epoch`.
    pub finish_secs: f64,
    /// Seconds spent folding the durable view into finish state (paid
    /// once per checkpoint stamp, not once per query).
    pub fold_secs: f64,
    /// Queries answered from incrementally folded state.
    pub cache_hits: u64,
    /// Scratch-pool buffer handouts served by reuse.
    pub scratch_reused: u64,
    /// Scratch-pool buffer handouts that allocated fresh.
    pub scratch_fresh: u64,
}

impl FinishPhase {
    /// Distill the finish-phase counters out of a run's [`StreamStats`].
    pub fn from_stats(stats: &StreamStats) -> Self {
        Self {
            queries: stats.finish_queries,
            finish_secs: stats.finish_total.as_secs_f64(),
            fold_secs: stats.fold_total.as_secs_f64(),
            cache_hits: stats.finish_cache_hits,
            scratch_reused: stats.scratch_reused,
            scratch_fresh: stats.scratch_fresh,
        }
    }

    /// Fraction of queries answered from incrementally folded state
    /// (0 when no queries ran).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Fraction of scratch-buffer handouts served by reuse (0 before
    /// any handout).
    pub fn scratch_reuse_rate(&self) -> f64 {
        let total = self.scratch_reused + self.scratch_fresh;
        if total == 0 {
            0.0
        } else {
            self.scratch_reused as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_phase_rates() {
        let stats = StreamStats {
            finish_queries: 4,
            finish_cache_hits: 3,
            scratch_reused: 6,
            scratch_fresh: 2,
            ..Default::default()
        };
        let phase = FinishPhase::from_stats(&stats);
        assert_eq!(phase.cache_hit_rate(), 0.75);
        assert_eq!(phase.scratch_reuse_rate(), 0.75);
        let empty = FinishPhase::from_stats(&StreamStats::default());
        assert_eq!(empty.cache_hit_rate(), 0.0);
        assert_eq!(empty.scratch_reuse_rate(), 0.0);
    }

    #[test]
    fn summary_of_perfect_output() {
        let data = vec![1, 1, 1, 2];
        let est = vec![(1u64, 3.0)];
        let s = summarize(&data, &est, 3.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.max_error, 0.0);
    }

    #[test]
    fn aggregate_counts_failures() {
        let good = TrialSummary {
            recall: 1.0,
            precision: 1.0,
            max_error: 2.0,
            list_len: 3,
        };
        let bad = TrialSummary {
            recall: 0.5,
            precision: 1.0,
            max_error: 9.0,
            list_len: 3,
        };
        let agg = aggregate(&[good, good, good, bad]);
        assert_eq!(agg.trials, 4);
        assert!((agg.success_rate - 0.75).abs() < 1e-12);
        assert_eq!(agg.min_recall, 0.5);
        assert!(agg.p90_max_error >= agg.median_max_error);
    }
}
