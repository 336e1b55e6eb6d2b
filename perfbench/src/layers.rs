//! Per-layer metrics of one traced repetition, computed from its spans
//! and the engine's public `StreamStats`.

use crate::stats::{median, percentile, union_len};
use crate::trace::{Kind, Span};
use hh_sim::{FinishPhase, StreamStats};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit and better direction, in the
/// order `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("registry.build_s", "s", "lower"),
    ("client.busy_s", "s", "lower"),
    ("client.calls", "count", "lower"),
    ("client.ns_per_user", "ns", "lower"),
    ("absorb.busy_s", "s", "lower"),
    ("absorb.calls", "count", "lower"),
    ("absorb.ns_per_user", "ns", "lower"),
    ("absorb.frame_errors", "count", "lower"),
    ("pipeline.queue_wait_p50_ms", "ms", "lower"),
    ("pipeline.queue_wait_p90_ms", "ms", "lower"),
    ("pipeline.producer_stall_s", "s", "lower"),
    ("pipeline.max_queue_occupancy", "count", "lower"),
    ("pipeline.collector_busy_share", "share", "lower"),
    ("pipeline.session_self_s", "s", "lower"),
    ("pipeline.recovery_p50_ms", "ms", "lower"),
    ("snapshot.encode_busy_s", "s", "lower"),
    ("snapshot.decode_busy_s", "s", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("snapshot.mb_per_s", "MB/s", "higher"),
    ("snapshot.bytes_per_new_user", "bytes", "lower"),
    ("merge.busy_s", "s", "lower"),
    ("merge.calls", "count", "lower"),
    ("fold.busy_s", "s", "lower"),
    ("finish.busy_s", "s", "lower"),
    ("finish.calls", "count", "lower"),
    ("finish.cache_hit_ratio", "share", "higher"),
    ("finish.scratch_reuse_ratio", "share", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.covered_share", "share", "higher"),
];

/// What a traced repetition tells the layer computation besides its
/// spans.
pub struct RepShape<'a> {
    /// The measured window, from the first client call to the final
    /// answer, in trace nanoseconds.
    pub window: (u64, u64),
    /// The thread that drove the session.
    pub session_thread: u32,
    /// Users ingested.
    pub users: u64,
    /// Collector actors (0 for the one-shot driver).
    pub collectors: usize,
    /// The pipelined runtime's counters (none for the one-shot driver).
    pub stats: Option<&'a StreamStats>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced repetition, except
/// `registry.build_s` and `trace.overhead_s`, which the caller measures
/// around the repetition.
pub fn layer_metrics(spans: &[Span], rep: &RepShape<'_>) -> BTreeMap<&'static str, f64> {
    let dur = |s: &Span| s.end.saturating_sub(s.start);
    let sum = |kind: Kind| -> (u64, u64, u64) {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0, 0, 0), |(ns, calls, amount), s| {
                (ns + dur(s), calls + 1, amount + s.amount)
            })
    };
    let is_session = |k: Kind, name: &str| matches!(k, Kind::Session(n) if n == name);
    let mut m = BTreeMap::new();

    let (client_ns, client_calls, client_users) = sum(Kind::Client);
    m.insert("client.busy_s", secs(client_ns));
    m.insert("client.calls", client_calls as f64);
    m.insert(
        "client.ns_per_user",
        ratio(client_ns as f64, client_users as f64),
    );

    let (absorb_ns, absorb_calls, absorb_users) = sum(Kind::Absorb);
    m.insert("absorb.busy_s", secs(absorb_ns));
    m.insert("absorb.calls", absorb_calls as f64);
    m.insert(
        "absorb.ns_per_user",
        ratio(absorb_ns as f64, absorb_users as f64),
    );
    let frame_errors = spans
        .iter()
        .filter(|s| s.kind == Kind::Absorb && !s.ok)
        .count();
    m.insert("absorb.frame_errors", frame_errors as f64);

    // Queue wait per chunk: end of its encode to the start of its first
    // absorb (a recovery replays the chunk later; that is not a wait).
    let mut first_absorb: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == Kind::Absorb) {
        if let Some(p) = s.parent.filter(|&p| spans[p].kind == Kind::Client) {
            let e = first_absorb.entry(p).or_insert(s.start);
            *e = (*e).min(s.start);
        }
    }
    let waits: Vec<f64> = first_absorb
        .iter()
        .map(|(&p, &start)| start.saturating_sub(spans[p].end) as f64 / 1e6)
        .collect();
    m.insert("pipeline.queue_wait_p50_ms", percentile(&waits, 50.0));
    m.insert("pipeline.queue_wait_p90_ms", percentile(&waits, 90.0));

    let (lo, hi) = rep.window;
    let wall = hi.saturating_sub(lo);
    let wrapped = |s: &&Span| !matches!(s.kind, Kind::Session(_));
    let collector_ns: u64 = spans
        .iter()
        .filter(wrapped)
        .filter(|s| s.thread != rep.session_thread)
        .map(dur)
        .sum();
    m.insert(
        "pipeline.collector_busy_share",
        if rep.collectors > 0 {
            ratio(collector_ns as f64, (rep.collectors as u64 * wall) as f64)
        } else {
            0.0
        },
    );
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(wrapped)
        .map(|s| (s.start.clamp(lo, hi), s.end.clamp(lo, hi)))
        .collect();
    let covered = union_len(&mut intervals);
    m.insert(
        "pipeline.session_self_s",
        secs(wall.saturating_sub(covered)),
    );
    m.insert("trace.covered_share", ratio(covered as f64, wall as f64));
    let recoveries: Vec<f64> = spans
        .iter()
        .filter(|s| is_session(s.kind, "recover"))
        .map(|s| dur(s) as f64 / 1e6)
        .collect();
    m.insert("pipeline.recovery_p50_ms", median(&recoveries));
    let (stall, occupancy) = rep.stats.map_or((0.0, 0.0), |st| {
        (
            st.producer_stall.as_secs_f64(),
            st.max_queue_occupancy as f64,
        )
    });
    m.insert("pipeline.producer_stall_s", stall);
    m.insert("pipeline.max_queue_occupancy", occupancy);

    let (encode_ns, _, encoded) = sum(Kind::Encode);
    let (decode_ns, _, _) = sum(Kind::Decode);
    m.insert("snapshot.encode_busy_s", secs(encode_ns));
    m.insert("snapshot.decode_busy_s", secs(decode_ns));
    m.insert("snapshot.bytes", encoded as f64);
    m.insert(
        "snapshot.mb_per_s",
        ratio(encoded as f64 / 1e6, secs(encode_ns)),
    );
    m.insert(
        "snapshot.bytes_per_new_user",
        ratio(encoded as f64, rep.users as f64),
    );

    let (merge_ns, merge_calls, _) = sum(Kind::Merge);
    m.insert("merge.busy_s", secs(merge_ns));
    m.insert("merge.calls", merge_calls as f64);
    // The fold is the session thread's decode + merge + re-encode inside
    // a mid-stream query (collector-side checkpoint encodes that overlap
    // a query are not part of it).
    let fold_ns: u64 = spans
        .iter()
        .filter(|s| matches!(s.kind, Kind::Encode | Kind::Decode | Kind::Merge))
        .filter(|s| s.thread == rep.session_thread)
        .filter(|s| {
            s.parent.is_some_and(|p| {
                is_session(spans[p].kind, "query_cold") || is_session(spans[p].kind, "query_warm")
            })
        })
        .map(dur)
        .sum();
    m.insert("fold.busy_s", secs(fold_ns));

    let (finish_ns, finish_calls, _) = sum(Kind::Finish);
    let (fold_in_ns, _, _) = sum(Kind::FinishShard);
    m.insert("finish.busy_s", secs(finish_ns + fold_in_ns));
    m.insert("finish.calls", finish_calls as f64);
    let (hits, reuse) = rep.stats.map_or((0.0, 0.0), |st| {
        let phase = FinishPhase::from_stats(st);
        (phase.cache_hit_rate(), phase.scratch_reuse_rate())
    });
    m.insert("finish.cache_hit_ratio", hits);
    m.insert("finish.scratch_reuse_ratio", reuse);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, thread: u32, parent: Option<usize>) -> Span {
        Span {
            kind,
            start,
            end,
            thread,
            parent,
            amount: 10,
            ok: true,
        }
    }

    #[test]
    fn queue_wait_self_time_and_fold_come_from_span_links() {
        let spans = vec![
            span(Kind::Session("query_cold"), 0, 100, 0, None),
            span(Kind::Client, 0, 10, 0, Some(0)),
            // First absorb waits 5 ns; the replay of the same chunk does
            // not count as a wait.
            span(Kind::Absorb, 15, 20, 1, Some(1)),
            span(Kind::Absorb, 80, 90, 1, Some(1)),
            span(Kind::Decode, 30, 40, 0, Some(0)),
            span(Kind::Encode, 30, 50, 1, Some(0)),
        ];
        let m = layer_metrics(
            &spans,
            &RepShape {
                window: (0, 100),
                session_thread: 0,
                users: 10,
                collectors: 1,
                stats: None,
            },
        );
        assert_eq!(m["pipeline.queue_wait_p50_ms"], 5e-6);
        // Covered: [0,10) [15,20) [30,50) [80,90) = 45 of 100 ns.
        assert_eq!(m["trace.covered_share"], 0.45);
        assert!((m["pipeline.session_self_s"] - 55e-9).abs() < 1e-15);
        // Only the session-thread decode is fold work.
        assert!((m["fold.busy_s"] - 10e-9).abs() < 1e-15);
        assert_eq!(m["absorb.calls"], 2.0);
        assert_eq!(m["snapshot.bytes"], 10.0);
    }
}
