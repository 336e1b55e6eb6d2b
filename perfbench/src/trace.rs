//! Spans recorded from outside the program: [`Traced`] implements the
//! public `DynHhProtocol` trait by delegating to a registry-built
//! protocol, and records one span per call. The engines and drivers call
//! through it, so every layer is timed at its boundary without changing
//! the crates under test.

use hh_freq::wire::{FrameError, WireError, WireFrames};
use hh_math::par::FinishScratch;
use hh_sim::{DynHhProtocol, DynShard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `respond_encode_batch`: client sampling and wire encoding.
    Client,
    /// `absorb_wire`: folding a wire chunk into a shard.
    Absorb,
    /// `merge` of two shards.
    Merge,
    /// `shard_encoded_len` / `encode_shard_into`: the snapshot encoder.
    Encode,
    /// `decode_shard`: the snapshot decoder.
    Decode,
    /// `finish_shard`: folding a shard into the server state.
    FinishShard,
    /// `finish` / `finish_with`: the decode to a heavy-hitter list.
    Finish,
    /// A span the benchmark opened around a session call.
    Session(&'static str),
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Nanoseconds since the trace began.
    pub start: u64,
    pub end: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Users covered (client and absorb spans) or bytes written
    /// (encode spans).
    pub amount: u64,
    /// `false` when the call returned an error.
    pub ok: bool,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The number of the calling thread.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// The spans of one traced repetition. Spans are kept in memory and read
/// when the repetition ends.
pub struct Trace {
    began: Instant,
    spans: Mutex<Vec<Span>>,
    /// Index + 1 of the session span in flight (0: none).
    session: AtomicU64,
    /// Client span index by chunk start user, so a collector's absorb
    /// links to the encode that produced its chunk.
    client_by_start: Mutex<HashMap<u64, usize>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            began: Instant::now(),
            spans: Mutex::new(Vec::new()),
            session: AtomicU64::new(0),
            client_by_start: Mutex::new(HashMap::new()),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.began.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("a traced call panicked");
        spans.push(span);
        spans.len() - 1
    }

    fn in_flight(&self) -> Option<usize> {
        match self.session.load(Ordering::SeqCst) {
            0 => None,
            i => Some(i as usize - 1),
        }
    }

    /// Open a session span; calls made until [`Trace::end`] on any
    /// thread that have no closer cause become its children.
    pub fn begin(&self, name: &'static str) -> usize {
        let now = self.now();
        let id = self.push(Span {
            kind: Kind::Session(name),
            start: now,
            end: now,
            thread: thread_id(),
            parent: None,
            amount: 0,
            ok: true,
        });
        self.session.store(id as u64 + 1, Ordering::SeqCst);
        id
    }

    /// Close a session span opened by [`Trace::begin`].
    pub fn end(&self, id: usize) {
        let now = self.now();
        self.spans.lock().expect("a traced call panicked")[id].end = now;
        self.session.store(0, Ordering::SeqCst);
    }

    /// Time `f` as a span of `kind`.
    fn call<R>(
        &self,
        kind: Kind,
        parent: Option<usize>,
        amount: impl FnOnce(&R) -> (u64, bool),
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let parent = parent.or_else(|| self.in_flight());
        let start = self.now();
        let out = f();
        let end = self.now();
        let (amount, ok) = amount(&out);
        let id = self.push(Span {
            kind,
            start,
            end,
            thread: thread_id(),
            parent,
            amount,
            ok,
        });
        (out, id)
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced call panicked").clone()
    }
}

/// A registry-built protocol behind the public `DynHhProtocol` trait,
/// timed at every call when it carries a [`Trace`].
///
/// It also counts the wire bytes its clients produce and, without a
/// trace, keeps the snapshot encoding of the last shard handed to
/// `finish_shard`: that is how the reference run exposes the serial
/// driver's final shard.
pub struct Traced {
    inner: Box<dyn DynHhProtocol>,
    trace: Option<std::sync::Arc<Trace>>,
    wire_bytes: AtomicU64,
    finished_shard: Mutex<Option<Vec<u8>>>,
}

impl Traced {
    /// Wrap `inner`; with `trace: None` only the byte count and the last
    /// finished shard are kept.
    pub fn new(inner: Box<dyn DynHhProtocol>, trace: Option<std::sync::Arc<Trace>>) -> Self {
        Traced {
            inner,
            trace,
            wire_bytes: AtomicU64::new(0),
            finished_shard: Mutex::new(None),
        }
    }

    /// Wire bytes produced by `respond_encode_batch` so far.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot bytes of the last shard passed to `finish_shard`.
    pub fn take_finished_shard(&self) -> Option<Vec<u8>> {
        self.finished_shard
            .lock()
            .expect("finish_shard panicked")
            .take()
    }

    fn timed<R>(
        &self,
        kind: Kind,
        parent: impl FnOnce(&Trace) -> Option<usize>,
        amount: impl FnOnce(&R) -> (u64, bool),
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        match &self.trace {
            Some(trace) => {
                let (out, id) = trace.call(kind, parent(trace), amount, f);
                (out, Some(id))
            }
            None => (f(), None),
        }
    }
}

fn plain<R>(_: &R) -> (u64, bool) {
    (0, true)
}

impl DynHhProtocol for Traced {
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        let before = out.len();
        let (lens, id) = self.timed(
            Kind::Client,
            |_| None,
            |_| (xs.len() as u64, true),
            || {
                self.inner
                    .respond_encode_batch(start_index, xs, client_seed, out)
            },
        );
        self.wire_bytes
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
        if let (Some(trace), Some(id)) = (&self.trace, id) {
            trace
                .client_by_start
                .lock()
                .expect("a traced call panicked")
                .insert(start_index, id);
        }
        lens
    }

    fn new_shard(&self) -> DynShard {
        self.inner.new_shard()
    }

    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.timed(
            Kind::Absorb,
            |trace| {
                trace
                    .client_by_start
                    .lock()
                    .expect("a traced call panicked")
                    .get(&start_index)
                    .copied()
            },
            |r: &Result<(), FrameError>| (frames.len() as u64, r.is_ok()),
            || self.inner.absorb_wire(shard, start_index, frames),
        )
        .0
    }

    fn merge(&self, a: DynShard, b: DynShard) -> DynShard {
        self.timed(Kind::Merge, |_| None, plain, || self.inner.merge(a, b))
            .0
    }

    fn shard_encoded_len(&self, shard: &DynShard) -> usize {
        self.timed(
            Kind::Encode,
            |_| None,
            plain,
            || self.inner.shard_encoded_len(shard),
        )
        .0
    }

    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>) {
        let before = out.len();
        let (_, id) = self.timed(
            Kind::Encode,
            |_| None,
            plain,
            || self.inner.encode_shard_into(shard, out),
        );
        if let (Some(trace), Some(id)) = (&self.trace, id) {
            trace.spans.lock().expect("a traced call panicked")[id].amount =
                (out.len() - before) as u64;
        }
    }

    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError> {
        self.timed(
            Kind::Decode,
            |_| None,
            |r: &Result<DynShard, WireError>| (0, r.is_ok()),
            || self.inner.decode_shard(bytes),
        )
        .0
    }

    fn finish_shard(&mut self, shard: DynShard) {
        let inner = &mut self.inner;
        match &self.trace {
            Some(trace) => {
                trace.call(Kind::FinishShard, None, plain, || inner.finish_shard(shard));
            }
            None => {
                let mut bytes = Vec::with_capacity(inner.shard_encoded_len(&shard));
                inner.encode_shard_into(&shard, &mut bytes);
                *self
                    .finished_shard
                    .get_mut()
                    .expect("finish_shard panicked") = Some(bytes);
                inner.finish_shard(shard);
            }
        }
    }

    fn finish(&mut self) -> Vec<(u64, f64)> {
        let inner = &mut self.inner;
        match &self.trace {
            Some(trace) => trace.call(Kind::Finish, None, plain, || inner.finish()).0,
            None => inner.finish(),
        }
    }

    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        let inner = &mut self.inner;
        match &self.trace {
            Some(trace) => {
                trace
                    .call(Kind::Finish, None, plain, || inner.finish_with(scratch))
                    .0
            }
            None => inner.finish_with(scratch),
        }
    }

    fn report_bits(&self) -> usize {
        self.inner.report_bits()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn detection_threshold(&self) -> f64 {
        self.inner.detection_threshold()
    }
}
