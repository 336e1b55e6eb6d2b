//! The wire format of client reports.
//!
//! The paper's protocols are client/server with logarithmic-size
//! messages; this module is where that claim meets bytes. Every
//! `Report` type in the workspace implements [`WireReport`]: an exact,
//! byte-oriented encoding (`encode_into` / `decode`) whose length is
//! known up front (`encoded_len`), so a report can cross a real
//! serialization boundary — a socket, a collector queue, a disk spool —
//! and arrive bit-for-bit intact. The distributed driver
//! (`hh_sim::run_heavy_hitter_distributed`) round-trips every report
//! through this format, and the `wire_conformance` integration tests pin
//! `decode(encode(r)) == r` plus the size bound
//! `encoded_len <= report_bits().div_ceil(8)` for every protocol and
//! oracle (a byte transport cannot beat bit granularity, so the claimed
//! Θ(log)-bit payload rounds up to the next whole byte).
//!
//! Encoding conventions:
//!
//! * Scalar payloads are **minimal little-endian**: the value is written
//!   in the fewest bytes that hold it (at least one), and the decoder
//!   reads the entire slice, rejecting non-canonical (zero-padded)
//!   encodings. Framing — knowing where one report ends — is the
//!   transport's job; the simulated collectors frame with
//!   [`WireReport::encoded_len`].
//! * Fields that are pure functions of the user index and public
//!   randomness (Hashtogram's group, the sketch's coordinate) are **not
//!   on the wire**: the server recomputes them from the index it already
//!   has. Reports carry payload only.
//! * Composite reports (one message wrapping two oracle reports)
//!   prefix the first component with a one-byte length so the decoder
//!   can split without protocol parameters.
//!
//! # Borrowed frames: the zero-copy ingest contract
//!
//! A batch of encoded reports travels as one *chunk*: a contiguous byte
//! buffer of concatenated frames plus each frame's length.
//! [`WireFrames`] is the borrowed view of such a chunk — it owns
//! nothing, so a collector can fold frames straight out of a pooled
//! arena into its shard (`absorb_wire` on the protocol traits) without
//! materializing `Report` values. The contract:
//!
//! * frame `k` of a chunk starting at `start_index` is user
//!   `start_index + k`'s report — position carries the user identity,
//!   nothing is repeated on the wire;
//! * [`WireFrames::new`] validates the framing up front: zero-length
//!   frames (no report encodes to zero bytes), frame lengths overrunning
//!   the buffer, and trailing bytes beyond the last frame are all
//!   rejected at chunk-decode time;
//! * a failed frame decode surfaces as a [`FrameError`] carrying the
//!   frame index and byte offset, so corruption is diagnosable down to
//!   the byte;
//! * the view is transient: spools and snapshots that must outlive the
//!   arena copy what they need (see `hh_sim::stream`), while the hot
//!   ingest path stays allocation-free.
//!
//! The fused client half is `respond_encode_batch` on the protocol
//! traits: sample straight into the chunk buffer, never building the
//! intermediate report vec. `tests/wire_conformance.rs` pins both halves
//! against the scalar `respond` + `collect` reference bit-for-bit.

use std::fmt;

/// Why a byte slice failed to decode as a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The slice is shorter than the format requires.
    Truncated,
    /// The slice holds bytes beyond the end of the report.
    Trailing,
    /// The bytes violate the format (non-canonical length, bad range).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire report truncated"),
            WireError::Trailing => write!(f, "trailing bytes after wire report"),
            WireError::Invalid(why) => write!(f, "invalid wire report: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A client report with an exact byte encoding.
///
/// Implementations must satisfy, for every value `r`:
///
/// 1. **Round trip:** `decode(&encode(r)) == Ok(r)`.
/// 2. **Exact length:** `encode_into` appends exactly
///    [`WireReport::encoded_len`] bytes.
/// 3. **Size claim:** when `r` was produced by a protocol whose
///    per-user communication claim is `report_bits()`,
///    `encoded_len() <= report_bits().div_ceil(8)`.
pub trait WireReport: Sized {
    /// Exact number of bytes [`WireReport::encode_into`] will append.
    fn encoded_len(&self) -> usize;

    /// Append the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode a report from a slice holding exactly one encoded report.
    fn decode(bytes: &[u8]) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        debug_assert_eq!(out.len(), self.encoded_len(), "encoded_len lied");
        out
    }
}

/// Bytes needed for the minimal little-endian encoding of `v` (≥ 1).
pub fn uint_len(v: u64) -> usize {
    (8 - (v.leading_zeros() as usize) / 8).max(1)
}

/// Append the minimal little-endian encoding of `v` (see [`uint_len`]).
pub fn write_uint(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes()[..uint_len(v)]);
}

/// Read a minimal little-endian integer spanning the whole slice.
///
/// Rejects empty slices, slices longer than 8 bytes, and non-canonical
/// encodings (a most-significant byte of zero in a multi-byte slice).
pub fn read_uint(bytes: &[u8]) -> Result<u64, WireError> {
    if bytes.is_empty() {
        return Err(WireError::Truncated);
    }
    if bytes.len() > 8 {
        return Err(WireError::Trailing);
    }
    if bytes.len() > 1 && bytes[bytes.len() - 1] == 0 {
        return Err(WireError::Invalid("zero-padded integer"));
    }
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    Ok(u64::from_le_bytes(buf))
}

/// Exact wire length in bytes of a `[first_len: u8][first][second]`
/// composite frame (see [`encode_pair`]).
pub fn pair_encoded_len<A: WireReport, B: WireReport>(first: &A, second: &B) -> usize {
    1 + first.encoded_len() + second.encoded_len()
}

/// Append a two-component composite frame: the first component's length
/// in one byte (so the decoder can split without protocol parameters),
/// then each component's own encoding.
pub fn encode_pair<A: WireReport, B: WireReport>(first: &A, second: &B, out: &mut Vec<u8>) {
    debug_assert!(first.encoded_len() <= u8::MAX as usize);
    out.push(first.encoded_len() as u8);
    first.encode_into(out);
    second.encode_into(out);
}

/// Decode a frame produced by [`encode_pair`].
pub fn decode_pair<A: WireReport, B: WireReport>(bytes: &[u8]) -> Result<(A, B), WireError> {
    let (&first_len, rest) = bytes.split_first().ok_or(WireError::Truncated)?;
    let first_len = first_len as usize;
    if rest.len() < first_len {
        return Err(WireError::Truncated);
    }
    let (first, second) = rest.split_at(first_len);
    Ok((A::decode(first)?, B::decode(second)?))
}

/// Worst-case size, in (byte-aligned) bits, of a composite
/// [`encode_pair`] message whose components claim `first_bits` and
/// `second_bits` — the `report_bits()` of the composite protocols.
pub fn pair_wire_bits(first_bits: usize, second_bits: usize) -> usize {
    8 * (1 + first_bits.div_ceil(8) + second_bits.div_ceil(8))
}

/// A borrowed view over one chunk of framed wire bytes: the concatenated
/// report encodings of a contiguous user range, plus each frame's
/// length.
///
/// This is the contract of the zero-copy ingest path: the bytes are
/// *borrowed* (typically from a pooled arena that outlives the view —
/// see `hh_sim::stream`), frame `k` belongs to user `start_index + k`,
/// and `absorb_wire` implementations fold the frames into a shard
/// without ever constructing owned `Report` values. Construction
/// validates the framing: every frame must be non-empty (no report
/// encodes to zero bytes) and the frame lengths must cover the buffer
/// exactly — trailing garbage and overruns are rejected here, at
/// chunk-decode time, not silently ignored downstream.
#[derive(Debug, Clone, Copy)]
pub struct WireFrames<'a> {
    bytes: &'a [u8],
    frame_lens: &'a [u32],
}

impl<'a> WireFrames<'a> {
    /// Frame a byte buffer. Rejects zero-length frames, frame lengths
    /// overrunning the buffer ([`WireError::Truncated`]), and bytes
    /// beyond the last frame ([`WireError::Trailing`]).
    pub fn new(bytes: &'a [u8], frame_lens: &'a [u32]) -> Result<Self, WireError> {
        let mut total = 0usize;
        for &len in frame_lens {
            if len == 0 {
                return Err(WireError::Invalid("zero-length frame"));
            }
            total = total
                .checked_add(len as usize)
                .ok_or(WireError::Truncated)?;
        }
        if total > bytes.len() {
            return Err(WireError::Truncated);
        }
        if total < bytes.len() {
            return Err(WireError::Trailing);
        }
        Ok(Self { bytes, frame_lens })
    }

    /// Number of frames (= users) in the chunk.
    pub fn len(&self) -> usize {
        self.frame_lens.len()
    }

    /// Whether the chunk holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frame_lens.is_empty()
    }

    /// Total wire bytes across all frames.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Iterate the frames in user order.
    pub fn iter(&self) -> Frames<'a> {
        Frames {
            bytes: self.bytes,
            lens: self.frame_lens.iter(),
        }
    }

    /// Pin a decode failure to frame `frame` of this chunk (its index
    /// and the byte offset its encoding starts at).
    pub fn frame_error(&self, frame: usize, error: WireError) -> FrameError {
        let byte_offset = self.frame_lens[..frame]
            .iter()
            .map(|&l| l as usize)
            .sum::<usize>();
        FrameError {
            frame,
            byte_offset,
            error,
        }
    }
}

impl<'a> IntoIterator for &WireFrames<'a> {
    type Item = &'a [u8];
    type IntoIter = Frames<'a>;

    fn into_iter(self) -> Frames<'a> {
        self.iter()
    }
}

/// Iterator over the frames of a [`WireFrames`] view, in user order.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    lens: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let &len = self.lens.next()?;
        // In bounds: `WireFrames::new` checked the lengths cover the
        // buffer exactly.
        let (frame, rest) = self.bytes.split_at(len as usize);
        self.bytes = rest;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lens.size_hint()
    }
}

impl ExactSizeIterator for Frames<'_> {}

/// A decode failure pinned to one frame of a wire chunk: which frame,
/// where its bytes start, and why it failed. `absorb_wire`
/// implementations return this so a corrupt spool or RPC is diagnosable
/// down to the byte (the streaming engine adds the collector id and the
/// chunk's start user on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// Index of the failing frame within the chunk (user
    /// `start_index + frame`).
    pub frame: usize,
    /// Byte offset of the frame's first byte within the chunk buffer.
    pub byte_offset: usize,
    /// The underlying wire error.
    pub error: WireError,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame {} at byte offset {}: {}",
            self.frame, self.byte_offset, self.error
        )
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A mergeable aggregation shard with an exact byte encoding — the
/// durable-snapshot analogue of [`WireReport`].
///
/// Where a `Report` is one client's message on the wire, a `Shard` is a
/// collector node's *partial aggregate*, and this codec is what makes
/// it a first-class durable artifact: a collector checkpoints by
/// encoding its shard to bytes, and recovers from a crash by decoding
/// the last snapshot and replaying only the reports received since
/// (the collector actors of `hh_sim::pipeline` drive exactly this
/// cycle).
///
/// Implementations must satisfy, for every shard `s`:
///
/// 1. **Round trip:** `decode_shard(&encode_shard(s))` is a shard that
///    is observationally identical to `s` — absorbing, merging, or
///    finishing it produces bit-for-bit the results `s` would.
/// 2. **Exact length:** `encode_shard_into` appends exactly
///    [`WireShard::shard_encoded_len`] bytes.
/// 3. **Canonical integers:** all integers use the minimal (canonical)
///    LEB128 varint forms of [`write_varint`] / [`write_varint_i64`];
///    decoders reject zero-padded encodings.
pub trait WireShard: Sized {
    /// Exact number of bytes [`WireShard::encode_shard_into`] appends.
    fn shard_encoded_len(&self) -> usize;

    /// Append the encoding of `self` to `out`.
    fn encode_shard_into(&self, out: &mut Vec<u8>);

    /// Decode a shard from a slice holding exactly one encoded shard.
    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn encode_shard(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.shard_encoded_len());
        self.encode_shard_into(&mut out);
        debug_assert_eq!(
            out.len(),
            self.shard_encoded_len(),
            "shard_encoded_len lied"
        );
        out
    }
}

/// Bytes of the canonical LEB128 varint encoding of `v` (1–10).
pub fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Append the canonical LEB128 varint encoding of `v`: 7 value bits per
/// byte, least-significant group first, high bit = continuation.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// ZigZag-map a signed tally to the unsigned varint domain
/// (`0, -1, 1, -2, … ↦ 0, 1, 2, 3, …`), so small-magnitude tallies of
/// either sign stay one byte.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bytes of the canonical varint encoding of a signed tally.
pub fn varint_len_i64(v: i64) -> usize {
    varint_len(zigzag(v))
}

/// Append the canonical varint encoding of a signed tally.
pub fn write_varint_i64(out: &mut Vec<u8>, v: i64) {
    write_varint(out, zigzag(v));
}

/// A cursor over an encoded shard: sequential canonical-varint reads
/// with truncation/overflow/padding checks, and a final
/// [`ShardReader::finish`] that rejects trailing bytes.
#[derive(Debug)]
pub struct ShardReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ShardReader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Read one canonical LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let &byte = self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(WireError::Invalid("varint overflows u64"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if group == 0 && shift > 0 {
                    return Err(WireError::Invalid("zero-padded varint"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Invalid("varint longer than 10 bytes"));
            }
        }
    }

    /// Read one signed tally ([`zigzag`]-coded varint).
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(unzigzag(self.u64()?))
    }

    /// Read a varint element count, guarded against allocation bombs:
    /// each element needs at least one byte, so a count beyond the
    /// remaining bytes is corrupt.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    /// Read `len` raw bytes (a nested frame).
    pub fn raw(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Finish: the whole slice must have been consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

/// Exact encoded length of a `[count][elements…]` varint run of signed
/// tallies — the layout shard codecs use for tally vectors.
pub fn tally_run_len(tallies: &[i64]) -> usize {
    varint_len(tallies.len() as u64) + tallies.iter().map(|&t| varint_len_i64(t)).sum::<usize>()
}

/// Append a `[count][elements…]` varint run of signed tallies.
pub fn write_tally_run(out: &mut Vec<u8>, tallies: &[i64]) {
    write_varint(out, tallies.len() as u64);
    for &t in tallies {
        write_varint_i64(out, t);
    }
}

/// Read a `[count][elements…]` varint run of signed tallies.
pub fn read_tally_run(r: &mut ShardReader<'_>) -> Result<Vec<i64>, WireError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.i64()?);
    }
    Ok(out)
}

/// Exact encoded length of a `[count][elements…]` varint run of counts.
pub fn count_run_len(counts: &[u64]) -> usize {
    varint_len(counts.len() as u64) + counts.iter().map(|&c| varint_len(c)).sum::<usize>()
}

/// Append a `[count][elements…]` varint run of counts.
pub fn write_count_run(out: &mut Vec<u8>, counts: &[u64]) {
    write_varint(out, counts.len() as u64);
    for &c in counts {
        write_varint(out, c);
    }
}

/// Read a `[count][elements…]` varint run of counts.
pub fn read_count_run(r: &mut ShardReader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

/// Pack a Hadamard-style `(row, ±1 bit)` report into its wire scalar
/// `row·2 + [bit > 0]` — the one definition the report codecs
/// (`HashtogramReport`, `BsReport`) and the shard report-run codec
/// share, so snapshot and report formats cannot drift apart.
pub fn pack_row_bit(row: u64, bit: i8) -> u64 {
    row << 1 | u64::from(bit > 0)
}

/// Inverse of [`pack_row_bit`].
pub fn unpack_row_bit(v: u64) -> (u64, i8) {
    (v >> 1, if v & 1 == 1 { 1 } else { -1 })
}

/// Raw `u64` reports (generalized randomized response): the value itself,
/// minimal little-endian.
impl WireReport for u64 {
    fn encoded_len(&self) -> usize {
        uint_len(*self)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        write_uint(out, *self);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        read_uint(bytes)
    }
}

/// Dense bitvector reports (one-hot RAPPOR): the bytes are the wire
/// format — identity encoding.
impl WireReport for Vec<u8> {
    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Ok(bytes.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_len_boundaries() {
        assert_eq!(uint_len(0), 1);
        assert_eq!(uint_len(255), 1);
        assert_eq!(uint_len(256), 2);
        assert_eq!(uint_len(u64::MAX), 8);
    }

    #[test]
    fn uint_round_trips_minimal() {
        for v in [0u64, 1, 127, 255, 256, 65_535, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_uint(&mut buf, v);
            assert_eq!(buf.len(), uint_len(v));
            assert_eq!(read_uint(&buf), Ok(v));
        }
    }

    #[test]
    fn read_uint_rejects_malformed() {
        assert_eq!(read_uint(&[]), Err(WireError::Truncated));
        assert_eq!(read_uint(&[1; 9]), Err(WireError::Trailing));
        assert_eq!(
            read_uint(&[7, 0]),
            Err(WireError::Invalid("zero-padded integer"))
        );
    }

    #[test]
    fn u64_wire_round_trip() {
        for v in [0u64, 42, 1 << 33] {
            assert_eq!(u64::decode(&v.encode()), Ok(v));
            assert_eq!(v.encode().len(), v.encoded_len());
        }
    }

    #[test]
    fn bytes_wire_round_trip() {
        let v = vec![0xAAu8, 0, 0x55];
        assert_eq!(Vec::<u8>::decode(&v.encode()), Ok(v.clone()));
        assert_eq!(v.encoded_len(), 3);
    }

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length lied for {v}");
            let mut r = ShardReader::new(&buf);
            assert_eq!(r.u64(), Ok(v));
            assert!(r.finish().is_ok());
        }
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_rejects_malformed() {
        // Truncated: continuation bit with nothing after.
        assert_eq!(ShardReader::new(&[0x80]).u64(), Err(WireError::Truncated));
        // Zero-padded: 0x80 0x00 is a non-canonical zero.
        assert_eq!(
            ShardReader::new(&[0x80, 0x00]).u64(),
            Err(WireError::Invalid("zero-padded varint"))
        );
        // Eleven bytes never decode.
        assert!(ShardReader::new(&[0xFF; 11]).u64().is_err());
        // 10-byte value overflowing 64 bits.
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert_eq!(
            ShardReader::new(&over).u64(),
            Err(WireError::Invalid("varint overflows u64"))
        );
        // Trailing bytes after the value are flagged at finish.
        let r = {
            let mut r = ShardReader::new(&[0x07, 0x07]);
            assert_eq!(r.u64(), Ok(7));
            r
        };
        assert_eq!(r.finish(), Err(WireError::Trailing));
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes of either sign stay one byte.
        assert_eq!(varint_len_i64(-1), 1);
        assert_eq!(varint_len_i64(63), 1);
        assert_eq!(varint_len_i64(64), 2);
    }

    #[test]
    fn tally_and_count_runs_round_trip() {
        let tallies = vec![0i64, -5, 1 << 40, -(1 << 40), 7];
        let counts = vec![0u64, 9, u64::MAX];
        let mut buf = Vec::new();
        write_tally_run(&mut buf, &tallies);
        write_count_run(&mut buf, &counts);
        assert_eq!(buf.len(), tally_run_len(&tallies) + count_run_len(&counts));
        let mut r = ShardReader::new(&buf);
        assert_eq!(read_tally_run(&mut r), Ok(tallies));
        assert_eq!(read_count_run(&mut r), Ok(counts));
        assert!(r.finish().is_ok());
    }

    /// Frame `reports` the way the fused encoders do: concatenated
    /// encodings plus each frame's length.
    fn encode_frames(reports: &[u64]) -> (Vec<u8>, Vec<u32>) {
        let mut bytes = Vec::new();
        let lens = reports
            .iter()
            .map(|r| {
                let before = bytes.len();
                r.encode_into(&mut bytes);
                (bytes.len() - before) as u32
            })
            .collect();
        (bytes, lens)
    }

    #[test]
    fn wire_frames_iterate_in_order() {
        let (bytes, lens) = encode_frames(&[1u64, 300, 70_000]);
        assert_eq!(lens, vec![1, 2, 3]);
        let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
        assert_eq!(frames.len(), 3);
        assert!(!frames.is_empty());
        assert_eq!(frames.total_bytes(), 6);
        let decoded: Vec<u64> = frames
            .iter()
            .map(|f| u64::decode(f).expect("frame decodes"))
            .collect();
        assert_eq!(decoded, vec![1, 300, 70_000]);
        assert_eq!(frames.iter().len(), 3);
    }

    #[test]
    fn empty_chunk_is_well_framed() {
        let frames = WireFrames::new(&[], &[]).expect("empty chunk");
        assert!(frames.is_empty());
        assert_eq!(frames.iter().count(), 0);
    }

    #[test]
    fn wire_frames_reject_malformed_framing() {
        // Trailing garbage: bytes beyond the last frame.
        assert_eq!(
            WireFrames::new(&[7, 8, 9], &[1, 1]).unwrap_err(),
            WireError::Trailing
        );
        // Frame lengths overrunning the buffer.
        assert_eq!(
            WireFrames::new(&[7, 8], &[1, 2]).unwrap_err(),
            WireError::Truncated
        );
        // Zero-length frames: no report encodes to zero bytes.
        assert_eq!(
            WireFrames::new(&[7], &[1, 0]).unwrap_err(),
            WireError::Invalid("zero-length frame")
        );
        // Length sums that overflow must not wrap around to "fits".
        assert_eq!(
            WireFrames::new(&[7], &[u32::MAX; 5]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn frame_errors_carry_index_and_offset() {
        let (bytes, lens) = encode_frames(&[1u64, 300, 70_000]);
        let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
        let err = frames.frame_error(2, WireError::Truncated);
        assert_eq!(err.frame, 2);
        assert_eq!(err.byte_offset, 3);
        assert_eq!(err.error, WireError::Truncated);
        assert_eq!(
            err.to_string(),
            "frame 2 at byte offset 3: wire report truncated"
        );
    }

    #[test]
    fn run_counts_beyond_the_buffer_are_truncation() {
        // A count claiming more elements than bytes remain must fail
        // fast, not allocate.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 30);
        let mut r = ShardReader::new(&buf);
        assert_eq!(read_count_run(&mut r), Err(WireError::Truncated));
    }
}
