//! The three workloads, one repetition at a time, and the serial
//! reference each repetition's output is checked against.

use crate::layers::{layer_metrics, RepShape};
use crate::trace::{thread_id, Trace, Traced};
use hh_math::par::FinishScratch;
use hh_math::rng::derive_seed;
use hh_sim::metrics::summarize;
use hh_sim::registry::{build_hh, ProtocolSpec};
use hh_sim::{
    run_dyn_heavy_hitter, run_dyn_heavy_hitter_batched, run_pipelined, BatchPlan, DistPlan,
    DynHhProtocol, DynHhStream, MergeOrder, PipelineConfig, StreamPlan,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `expander_sketch` through one run of the batched driver: the
    /// paper's protocol, time to the answer. Finish dominates; the
    /// pipeline and snapshot layers are bypassed.
    SketchBatch,
    /// `expander_sketch` through the pipelined runtime with a
    /// synchronous checkpoint after every epoch and kill/recover cycles,
    /// no finish: client sampling and the growing snapshot dominate.
    SketchStream,
    /// `scan` through the pipelined runtime with a cold and a warm query
    /// after every epoch: many small decodes of a fixed-size state.
    ScanStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SketchBatch,
        Workload::SketchStream,
        Workload::ScanStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SketchBatch => "sketch_batch",
            Workload::SketchStream => "sketch_stream",
            Workload::ScanStream => "scan_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes; `smoke` shrinks them to a run of seconds.
    pub fn shape(self, smoke: bool) -> Shape {
        match (self, smoke) {
            (Workload::SketchBatch, false) => Shape {
                protocol: "expander_sketch",
                domain: 1 << 20,
                epochs: 1,
                epoch_users: 1 << 18,
                chunk: 1 << 15,
                input: Input::Planted(0.3),
                kill_every: 0,
            },
            (Workload::SketchBatch, true) => Shape {
                domain: 1 << 12,
                epoch_users: 1 << 12,
                chunk: 1 << 10,
                ..self.shape(false)
            },
            (Workload::SketchStream, false) => Shape {
                protocol: "expander_sketch",
                domain: 1 << 20,
                epochs: 128,
                epoch_users: 1 << 13,
                chunk: 1 << 11,
                input: Input::Zipf(1.2),
                kill_every: 32,
            },
            (Workload::SketchStream, true) => Shape {
                domain: 1 << 12,
                epochs: 8,
                epoch_users: 1 << 9,
                chunk: 1 << 7,
                kill_every: 4,
                ..self.shape(false)
            },
            (Workload::ScanStream, false) => Shape {
                protocol: "scan",
                domain: 1 << 16,
                epochs: 100,
                epoch_users: 1 << 17,
                chunk: 1 << 15,
                input: Input::Zipf(1.2),
                kill_every: 100,
            },
            (Workload::ScanStream, true) => Shape {
                domain: 1 << 8,
                epochs: 8,
                epoch_users: 1 << 10,
                chunk: 1 << 8,
                kill_every: 8,
                ..self.shape(false)
            },
        }
    }
}

/// The input distribution.
#[derive(Clone, Copy, Debug)]
pub enum Input {
    /// One element, chosen by the seed, carrying this share of users;
    /// the rest uniform.
    Planted(f64),
    /// Zipf with this exponent.
    Zipf(f64),
}

/// Sizes of one workload. ε = 4 and β = 0.1 throughout.
#[derive(Clone, Debug)]
pub struct Shape {
    pub protocol: &'static str,
    pub domain: u64,
    /// Epochs (1 for the one-shot driver).
    pub epochs: usize,
    pub epoch_users: usize,
    /// Users per wire chunk.
    pub chunk: usize,
    pub input: Input,
    /// Kill/recover cycle length in epochs (0: none). A collector is
    /// killed a quarter into each cycle and recovered two epochs later.
    pub kill_every: usize,
}

pub const EPS: f64 = 4.0;
pub const BETA: f64 = 0.1;

/// The server's public-randomness seed. It is configuration, not input:
/// the sketch's set-up and decode cost depend on it (through its hash
/// and expander construction), so a fixed value lets `--seed` vary only
/// the users' values and coins without moving those costs.
pub const PUBLIC_SEED: u64 = 0x5EED;

/// Thread and queue settings. None of them changes outputs.
#[derive(Clone, Debug)]
pub struct Knobs {
    /// Worker threads of the batched driver, which also finish with
    /// them; finish threads of the streams' final answer.
    pub threads: usize,
    /// Collector actors of the pipelined runtime.
    pub collectors: usize,
    /// Encoder workers of the pipelined runtime (1: the session thread).
    pub workers: usize,
    /// Bounded depth of each collector's queue, in chunks.
    pub queue_depth: usize,
}

impl Knobs {
    /// Two threads and two collectors, never more than `nproc`.
    pub fn new(nproc: usize) -> Knobs {
        Knobs {
            threads: nproc.clamp(1, 2),
            collectors: nproc.clamp(1, 2),
            workers: 1,
            queue_depth: 4,
        }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    pub data: Vec<u64>,
    pub spec: ProtocolSpec,
    /// Seed of the users' coins.
    pub run_seed: u64,
}

pub fn inputs(shape: &Shape, seed: u64) -> Inputs {
    let n = shape.epochs * shape.epoch_users;
    let dist = match shape.input {
        Input::Planted(mass) => hh_sim::Workload::planted(
            shape.domain,
            vec![(derive_seed(seed, 4) % shape.domain, mass)],
        ),
        Input::Zipf(exponent) => hh_sim::Workload::zipf(shape.domain, exponent),
    };
    Inputs {
        data: dist.generate(n, derive_seed(seed, 1)),
        spec: ProtocolSpec {
            n: n as u64,
            domain: shape.domain,
            eps: EPS,
            beta: BETA,
            seed: PUBLIC_SEED,
        },
        run_seed: derive_seed(seed, 3),
    }
}

/// What a repetition produced, checked against the reference.
#[derive(Debug, Default)]
pub enum Output {
    #[default]
    None,
    /// A heavy-hitter list.
    List(Vec<(u64, f64)>),
    /// The snapshot bytes of the final merged shard.
    Shard(Vec<u8>),
}

/// One repetition's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// `build_hh` time of the streamed protocol.
    pub build_s: f64,
    /// First client call until the shard is ready or the fleet drained.
    pub ingest_s: f64,
    /// Drained shard to the final output.
    pub answer_s: f64,
    /// Set-up start to the final output.
    pub wall_s: f64,
    pub checkpoint_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    pub users: u64,
    /// Wire bytes (0: measured by the reference instead).
    pub wire_bytes: u64,
    /// Snapshot bytes of the final aggregate (0: measured by the
    /// reference instead).
    pub final_bytes: u64,
    pub output: Output,
    /// Runs, checkpoints, queries and recoveries attempted.
    pub attempted: u64,
    /// Those that returned a wrong result. (Panics are counted by the
    /// caller.)
    pub failed: u64,
    /// Per-layer metrics, for a traced repetition.
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

/// Bit-for-bit equality of two heavy-hitter lists.
pub fn same_list(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn build(shape: &Shape, spec: &ProtocolSpec, trace: &Option<Arc<Trace>>) -> Box<dyn DynHhProtocol> {
    let protocol =
        build_hh(shape.protocol, spec).expect("the workload names a registered protocol");
    match trace {
        Some(trace) => Box::new(Traced::new(protocol, Some(trace.clone()))),
        None => protocol,
    }
}

/// Run `f` inside a session span when tracing.
fn span<R>(trace: &Option<Arc<Trace>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(trace) => {
            let id = trace.begin(name);
            let out = f();
            trace.end(id);
            out
        }
        None => f(),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One repetition of `w`, traced or not.
pub fn run_rep(w: Workload, shape: &Shape, knobs: &Knobs, inp: &Inputs, traced: bool) -> Rep {
    let trace = traced.then(|| Arc::new(Trace::new()));
    let (mut rep, window, stats) = match w {
        Workload::SketchBatch => batch_rep(shape, knobs, inp, &trace),
        Workload::SketchStream | Workload::ScanStream => stream_rep(w, shape, knobs, inp, &trace),
    };
    if let Some(trace) = &trace {
        let mut layers = layer_metrics(
            &trace.spans(),
            &RepShape {
                window,
                session_thread: thread_id(),
                users: rep.users,
                collectors: if stats.is_some() { knobs.collectors } else { 0 },
                stats: stats.as_ref(),
            },
        );
        layers.insert("registry.build_s", rep.build_s);
        rep.layers = Some(layers);
    }
    rep
}

type RepParts = (Rep, (u64, u64), Option<hh_sim::StreamStats>);

fn batch_rep(shape: &Shape, knobs: &Knobs, inp: &Inputs, trace: &Option<Arc<Trace>>) -> RepParts {
    let t0 = Instant::now();
    let mut server = build(shape, &inp.spec, trace);
    let build_s = t0.elapsed().as_secs_f64();
    let lo = trace.as_ref().map_or(0, |t| t.now());
    let t1 = Instant::now();
    let plan = BatchPlan {
        chunk_size: shape.chunk,
        threads: knobs.threads,
    };
    let run = span(trace, "run", || {
        run_dyn_heavy_hitter_batched(server.as_mut(), &inp.data, inp.run_seed, &plan)
    });
    let run_s = t1.elapsed().as_secs_f64();
    let hi = trace.as_ref().map_or(0, |t| t.now());
    let answer_s = run.server_finish.as_secs_f64();
    let rep = Rep {
        build_s,
        ingest_s: run_s - answer_s,
        answer_s,
        wall_s: t0.elapsed().as_secs_f64(),
        users: inp.data.len() as u64,
        output: Output::List(run.estimates),
        attempted: 1,
        ..Rep::default()
    };
    (rep, (lo, hi), None)
}

fn stream_plan(w: Workload, shape: &Shape, knobs: &Knobs) -> (StreamPlan, PipelineConfig) {
    let plan = StreamPlan {
        epoch_size: shape.epoch_users,
        // The sketch checkpoints synchronously; the scan on the cadence.
        checkpoint_every: usize::from(w == Workload::ScanStream),
        dist: DistPlan {
            collectors: knobs.collectors,
            chunk_size: shape.chunk,
            threads: knobs.threads,
            merge: MergeOrder::Tree,
        },
    };
    let config = PipelineConfig {
        queue_depth: knobs.queue_depth,
        workers: knobs.workers,
    };
    (plan, config)
}

fn stream_rep(
    w: Workload,
    shape: &Shape,
    knobs: &Knobs,
    inp: &Inputs,
    trace: &Option<Arc<Trace>>,
) -> RepParts {
    let t0 = Instant::now();
    let server = build(shape, &inp.spec, trace);
    let build_s = t0.elapsed().as_secs_f64();
    // The scan answers from a second instance, as a server restarting
    // its decoder would.
    let mut answer = (w == Workload::ScanStream).then(|| build(shape, &inp.spec, trace));
    let (plan, config) = stream_plan(w, shape, knobs);
    let mut rep = Rep {
        build_s,
        ..Rep::default()
    };
    let mut lo = 0;
    let mut first_call = t0;
    let mut last_cold: Option<Vec<(u64, f64)>> = None;
    let ingest = DynHhStream(server.as_ref());
    let (shard, stats, ()) = run_pipelined(&ingest, &plan, &config, inp.run_seed, |session| {
        first_call = Instant::now();
        lo = trace.as_ref().map_or(0, |t| t.now());
        let k = knobs.collectors;
        let mut killed: Option<(usize, u64)> = None;
        for (e, xs) in inp.data.chunks(shape.epoch_users).enumerate() {
            span(trace, "epoch", || session.ingest_epoch(xs));
            if w == Workload::SketchStream {
                let t = Instant::now();
                let report = span(trace, "checkpoint", || session.checkpoint());
                rep.checkpoint_ms.push(ms(t));
                let alive = (0..k).filter(|&c| session.is_alive(c)).count();
                rep.attempted += 1;
                rep.failed += u64::from(report.collectors != alive);
            } else {
                let mut fresh = build(shape, &inp.spec, trace);
                let t = Instant::now();
                let cold = span(trace, "query_cold", || {
                    session.finish_at_epoch(fresh.as_mut())
                });
                rep.query_ms.push(ms(t));
                let warm = span(trace, "query_warm", || {
                    session.finish_at_epoch(fresh.as_mut())
                });
                rep.attempted += 2;
                rep.failed += u64::from(!same_list(&cold, &warm));
                last_cold = Some(cold);
            }
            if shape.kill_every > 0 {
                let offset = (e + 1) % shape.kill_every;
                let node = (e / shape.kill_every) % k;
                if offset == shape.kill_every / 4 {
                    span(trace, "kill", || session.kill_collector(node));
                    killed = Some((node, session.epoch()));
                } else if let Some((node, at)) =
                    killed.filter(|_| offset == shape.kill_every / 4 + 2)
                {
                    let t = Instant::now();
                    let report = span(trace, "recover", || session.recover_collector(node));
                    rep.recovery_ms.push(ms(t));
                    rep.attempted += 1;
                    rep.failed += u64::from(report.from_epoch != Some(at));
                    killed = None;
                }
            }
        }
    });
    rep.ingest_s = first_call.elapsed().as_secs_f64();
    rep.users = stats.users;
    rep.wire_bytes = stats.wire_bytes;
    rep.final_bytes = server.shard_encoded_len(&shard) as u64;
    let t = Instant::now();
    match answer.as_mut() {
        Some(answer) => {
            let list = span(trace, "answer", || {
                answer.finish_shard(shard);
                answer.finish_with(&mut FinishScratch::with_threads(knobs.threads))
            });
            rep.answer_s = t.elapsed().as_secs_f64();
            // The last cold query answered from the final checkpoint, so
            // it must equal the final answer.
            rep.failed += u64::from(!last_cold.is_some_and(|q| same_list(&q, &list)));
            rep.output = Output::List(list);
        }
        None => {
            let bytes = span(trace, "answer", || {
                let mut bytes = Vec::with_capacity(rep.final_bytes as usize);
                server.encode_shard_into(&shard, &mut bytes);
                bytes
            });
            rep.answer_s = t.elapsed().as_secs_f64();
            rep.output = Output::Shard(bytes);
        }
    }
    rep.attempted += 1;
    rep.wall_s = t0.elapsed().as_secs_f64();
    let hi = trace.as_ref().map_or(0, |t| t.now());
    (rep, (lo, hi), Some(stats))
}

/// The serial reference driver's results on a workload's inputs.
pub struct Reference {
    pub list: Vec<(u64, f64)>,
    /// The final shard every repetition of a stream must produce.
    pub shard: Option<Vec<u8>>,
    /// Snapshot bytes of the shard the serial driver finished.
    pub serial_shard_len: u64,
    pub wire_bytes: u64,
    /// Share of the Δ-heavy elements the list recovers.
    pub recall: f64,
}

/// Run the serial reference driver. A sketch shard buffers reports in
/// arrival order, so a merged two-collector shard is not byte-equal to
/// the serial one; a stream's shard (`stream_shard`, from the first
/// repetition) becomes the reference shard only if it decodes and
/// finishes to the serial list bit for bit.
pub fn reference(shape: &Shape, inp: &Inputs, stream_shard: Option<&[u8]>) -> Reference {
    let protocol =
        build_hh(shape.protocol, &inp.spec).expect("the workload names a registered protocol");
    let mut server = Traced::new(protocol, None);
    let run = run_dyn_heavy_hitter(&mut server, &inp.data, inp.run_seed);
    let serial_shard = server
        .take_finished_shard()
        .expect("the serial driver finishes one shard");
    let shard = stream_shard.filter(|bytes| {
        let mut fresh = build_hh(shape.protocol, &inp.spec).expect("registered");
        match fresh.decode_shard(bytes) {
            Ok(decoded) => {
                fresh.finish_shard(decoded);
                same_list(
                    &fresh.finish_with(&mut FinishScratch::serial()),
                    &run.estimates,
                )
            }
            Err(_) => false,
        }
    });
    Reference {
        recall: summarize(&inp.data, &run.estimates, run.detection_threshold).recall,
        shard: shard.map(<[u8]>::to_vec),
        serial_shard_len: serial_shard.len() as u64,
        wire_bytes: server.wire_bytes(),
        list: run.estimates,
    }
}

/// Whether a repetition's output equals the reference bit for bit.
pub fn matches_reference(rep: &Rep, reference: &Reference) -> bool {
    let output = match &rep.output {
        Output::List(list) => same_list(list, &reference.list),
        Output::Shard(bytes) => reference.shard.as_ref() == Some(bytes),
        Output::None => false,
    };
    output && (rep.wire_bytes == 0 || rep.wire_bytes == reference.wire_bytes)
}

/// Time to set up `w` once: `build_hh`, plus the fleet spawn up to the
/// session's first call for a stream.
pub fn setup_trial(w: Workload, shape: &Shape, knobs: &Knobs, inp: &Inputs) -> f64 {
    let t0 = Instant::now();
    let server = build(shape, &inp.spec, &None);
    if w == Workload::SketchBatch {
        return t0.elapsed().as_secs_f64();
    }
    let _answer = (w == Workload::ScanStream).then(|| build(shape, &inp.spec, &None));
    let (plan, config) = stream_plan(w, shape, knobs);
    let (_, _, setup) = run_pipelined(
        &DynHhStream(server.as_ref()),
        &plan,
        &config,
        inp.run_seed,
        |_| t0.elapsed().as_secs_f64(),
    );
    setup
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traced and untraced repetitions give the same output, bit for
    /// bit, and both equal the serial reference.
    #[test]
    fn tracing_is_output_transparent() {
        let knobs = Knobs::new(2);
        for w in Workload::ALL {
            let shape = w.shape(true);
            let inp = inputs(&shape, 7);
            let plain = run_rep(w, &shape, &knobs, &inp, false);
            let traced = run_rep(w, &shape, &knobs, &inp, true);
            let shard = match &plain.output {
                Output::Shard(bytes) => Some(bytes.as_slice()),
                _ => None,
            };
            let reference = reference(&shape, &inp, shard);
            assert!(
                matches_reference(&plain, &reference),
                "{}: untraced",
                w.name()
            );
            assert!(
                matches_reference(&traced, &reference),
                "{}: traced",
                w.name()
            );
            assert_eq!(plain.failed + traced.failed, 0, "{}", w.name());
            assert!(plain.layers.is_none());
            let layers = traced.layers.expect("traced repetition has layers");
            assert!(layers["client.calls"] > 0.0, "{}", w.name());
            assert!(layers["absorb.calls"] > 0.0, "{}", w.name());
            match w {
                Workload::SketchStream => assert_eq!(layers["finish.calls"], 0.0),
                _ => assert!(layers["finish.calls"] > 0.0, "{}", w.name()),
            }
        }
    }

    #[test]
    fn stream_repetitions_exercise_every_operation() {
        let knobs = Knobs::new(2);
        let shape = Workload::SketchStream.shape(true);
        let rep = run_rep(
            Workload::SketchStream,
            &shape,
            &knobs,
            &inputs(&shape, 3),
            false,
        );
        assert_eq!(rep.checkpoint_ms.len(), shape.epochs);
        assert_eq!(rep.recovery_ms.len(), shape.epochs / shape.kill_every);
        let shape = Workload::ScanStream.shape(true);
        let rep = run_rep(
            Workload::ScanStream,
            &shape,
            &knobs,
            &inputs(&shape, 3),
            false,
        );
        assert_eq!(rep.query_ms.len(), shape.epochs);
        assert_eq!(rep.recovery_ms.len(), 1);
    }
}
