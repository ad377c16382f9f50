//! Content-addressed on-disk artifact store for generated traces and
//! cache-filtered miss streams.
//!
//! The [`crate::trace_cache::TraceCache`] memoizes trace generation and
//! cache filtering per process; this module extends that memo to disk so
//! the fixed cost survives process exit. Each artifact is addressed by a
//! stable 128-bit digest of everything that determines its content:
//!
//! * packed traces — the [`KernelParams`] (kernel + scale), which fully
//!   determine the generated reference stream;
//! * miss streams — the [`FilterKey`] (workload × L1/L2 geometry ×
//!   thread count), which fully determines the DRAM-visible tail;
//! * phase selections — the [`FilterKey`] extended with the
//!   [`SimPointConfig`], which fully determines the deterministic
//!   slicing, fingerprinting, and clustering result; behind the selection
//!   the same blob carries its [`PhaseSample`] — the stream's totals and
//!   the records the representative slices replay — so a sampled cell in
//!   a warm process reads this blob and never the miss stream's.
//!
//! Blob layout (`<digest>.trace` / `<digest>.miss` / `<digest>.simpoint`
//! under the store root):
//!
//! ```text
//! header:  magic "ABFTART1" | u32 kind | u32 version (4) | u128 key digest
//! payload: varint-compressed artifact body (xor-delta words)
//! footer:  u64 payload length | u64 payload checksum | magic "ABFTEND1"
//! ```
//!
//! A `.simpoint` payload is two sections: the selection, then the sample
//! (the head of a miss payload, the slices' records xor-delta coded like a
//! miss stream's, one word offset per phase).
//! [`ArtifactStore::load_simpoint`] decodes the first and stops;
//! [`ArtifactStore::load_sample`] decodes both and checks that they fit
//! each other and the key.
//!
//! The checksum is FNV-1a taken a 64-bit little-endian word at a time:
//! each step is a bijection of the state for a fixed word and of the word
//! for a fixed state, so a change confined to one aligned 8-byte word of
//! the payload — every single-bit and single-byte flip — always changes
//! it. The footer is verified on every load — length and checksum first,
//! the header key digest against the requested key after. A checksum
//! vouches for the bytes, not for their writer, so the decoded artifact
//! must then pass its own `check`, the one every debug build asserts where
//! the artifact is built; for a miss stream or a phase sample the geometry
//! inside the payload is compared against the key's last. Any mismatch
//! (truncation, bit rot, digest collision, an older format version, parts
//! that do not fit together) **evicts** the entry: the file is deleted and
//! the caller regenerates, so a corrupt blob is never deserialized into a
//! wrong result. Writes go through a temp file of their own in the same
//! directory plus an atomic rename, so neither a crash mid-write nor a
//! second writer of the same key leaves a partial artifact under an
//! addressable name.
//!
//! Counters ([`ArtifactStore::metrics`]) are plumbed through
//! [`crate::trace_cache::TraceCache`] into the campaign layer's metrics.

use crate::config::CacheConfig;
use crate::miss_stream::{MissStream, RegionTally, SliceCursor, StreamTotals};
use crate::packed::PackedTrace;
use crate::simpoint::{
    PhaseSample, SimPointConfig, SimPointParts, SimPointPhase, SimPointSelection,
};
use crate::trace::{Region, RegionMap, PAGE_BYTES};
use crate::trace_cache::FilterKey;
use crate::workloads::KernelParams;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const BLOB_MAGIC: &[u8; 8] = b"ABFTART1";
const END_MAGIC: &[u8; 8] = b"ABFTEND1";
/// Version 2 reframed the checksum from byte-wise to word-wise FNV-1a;
/// version 3 put the phase sample behind the selection in `.simpoint`
/// payloads (the other two kinds kept their bytes); version 4 keeps every
/// layout but counts a miss record's gap and a cursor's track in thread
/// cycles, where version 3 counted core cycles — bytes the version alone
/// tells apart. Older blobs fail the version check and are evicted and
/// regenerated like any other unusable blob.
const FORMAT_VERSION: u32 = 4;
const KIND_TRACE: u32 = 1;
const KIND_MISS: u32 = 2;
const KIND_SIMPOINT: u32 = 3;
const HEADER_BYTES: usize = 8 + 4 + 4 + 16;
const FOOTER_BYTES: usize = 8 + 8 + 8;

/// Why an artifact-store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The blob does not start with the artifact magic.
    BadMagic,
    /// The blob's kind or format version does not match the request.
    BadKind,
    /// The blob is shorter than a header plus footer, or the footer
    /// length disagrees with the file size.
    Truncated,
    /// The payload checksum does not match the footer.
    ChecksumMismatch,
    /// The header's key digest does not match the requested key.
    KeyMismatch,
    /// The payload failed structural decoding.
    Malformed(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "artifact blob has a foreign magic"),
            StoreError::BadKind => write!(f, "artifact blob kind/version mismatch"),
            StoreError::Truncated => write!(f, "artifact blob is truncated"),
            StoreError::ChecksumMismatch => write!(f, "artifact payload checksum mismatch"),
            StoreError::KeyMismatch => write!(f, "artifact key digest mismatch"),
            StoreError::Malformed(what) => write!(f, "artifact payload malformed: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Incremental FNV-1a digest over a canonical byte encoding — the
/// content address of every artifact.
struct StableDigest(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001b3;

impl StableDigest {
    /// A fresh digest at the FNV-1a offset basis.
    fn new() -> Self {
        StableDigest(FNV128_OFFSET)
    }

    /// Fold raw bytes into the digest.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Fold a `u64` (little-endian) into the digest.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a length-prefixed string token into the digest.
    fn str_token(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The 128-bit digest value.
    fn finish(&self) -> u128 {
        self.0
    }
}

/// The blob payload checksum: FNV-1a 64 folded eight little-endian bytes
/// per step, the last `len % 8` bytes one at a time. Xor with a word and
/// multiplication by the odd prime are both bijections of the state, so
/// two payloads that differ inside a single step can never collide.
fn checksum(bytes: &[u8]) -> u64 {
    let whole = bytes.len() & !7;
    fold_bytes(fold_words(FNV64_OFFSET, &bytes[..whole]), &bytes[whole..])
}

/// Fold whole little-endian words into the checksum state `h`.
fn fold_words(mut h: u64, words: &[u8]) -> u64 {
    for w in words.chunks_exact(8) {
        let mut le = [0u8; 8];
        le.copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(le)).wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Fold a payload's last `len % 8` bytes into the checksum state `h`.
fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV64_PRIME))
}

fn digest_params(d: &mut StableDigest, params: KernelParams) {
    match params {
        KernelParams::Dgemm(p) => {
            d.str_token("dgemm/v1");
            d.u64(p.n as u64);
            d.u64(p.nb as u64);
            d.u64(p.abft as u64);
            d.u64(p.verify_interval as u64);
        }
        KernelParams::Cholesky(p) => {
            d.str_token("cholesky/v1");
            d.u64(p.n as u64);
            d.u64(p.nb as u64);
            d.u64(p.abft as u64);
        }
        KernelParams::Cg(p) => {
            d.str_token("cg/v1");
            d.u64(p.grid as u64);
            d.u64(p.iterations as u64);
            d.u64(p.abft as u64);
            d.u64(p.verify_interval as u64);
        }
        KernelParams::Hpl(p) => {
            d.str_token("hpl/v1");
            d.u64(p.n as u64);
            d.u64(p.nb as u64);
            d.u64(p.abft as u64);
        }
    }
}

fn digest_cache(d: &mut StableDigest, c: &CacheConfig) {
    d.u64(c.capacity as u64);
    d.u64(c.ways as u64);
    d.u64(c.line_bytes as u64);
    d.u64(c.latency_cycles);
}

/// Content address of a packed-trace artifact.
pub fn trace_key(params: KernelParams) -> u128 {
    let mut d = StableDigest::new();
    d.str_token("packed-trace/v1");
    digest_params(&mut d, params);
    d.finish()
}

/// Content address of a miss-stream artifact.
pub fn miss_key(key: &FilterKey) -> u128 {
    let mut d = StableDigest::new();
    d.str_token("miss-stream/v1");
    digest_params(&mut d, key.params);
    digest_cache(&mut d, &key.l1);
    digest_cache(&mut d, &key.l2);
    d.u64(key.threads as u64);
    d.finish()
}

/// Content address of a phase-selection artifact: the miss-stream key
/// extended with every [`SimPointConfig`] field, so any change to the
/// sampling parameters addresses a different blob.
pub fn simpoint_key(key: &FilterKey, cfg: &SimPointConfig) -> u128 {
    let mut d = StableDigest::new();
    d.str_token("simpoint/v1");
    digest_params(&mut d, key.params);
    digest_cache(&mut d, &key.l1);
    digest_cache(&mut d, &key.l2);
    d.u64(key.threads as u64);
    d.u64(cfg.interval);
    d.u64(cfg.max_phases as u64);
    d.u64(cfg.seed);
    d.u64(cfg.iterations as u64);
    d.u64(cfg.strata as u64);
    d.finish()
}

// ---------------------------------------------------------------------
// Varint payload primitives (LEB128; xor-delta compresses the regular
// word streams well — consecutive packed words share high bits).

/// Bytes a blob's payload is buffered in on its way to disk: a
/// [`BlobWriter`] writes once its buffer holds this many.
const BLOB_BUF: usize = 64 * 1024;

/// Where the encoders write a payload: a `Vec` that holds it whole (what
/// the tests take apart), or a [`BlobWriter`] that streams it to disk.
trait Payload {
    /// The bytes not yet written out, to append to.
    fn buf(&mut self) -> &mut Vec<u8>;

    /// Called after every value appended: a streaming writer writes out a
    /// full buffer here.
    fn spill(&mut self) {}
}

impl Payload for Vec<u8> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self
    }
}

/// One blob on its way to disk through a fixed buffer: the header is
/// written first, the payload a full buffer at a time, the footer last, so
/// no copy of the blob is ever held whole. A flush writes the buffer's
/// 8-byte-aligned prefix, folds it into the checksum a word at a time and
/// carries the rest over; the payload is therefore folded in exactly the
/// aligned words [`checksum`] takes over it whole, and the sum in the
/// footer is the same. The first I/O error is kept, every later write
/// skipped, and [`BlobWriter::finish`] returns it.
struct BlobWriter<W> {
    out: W,
    buf: Vec<u8>,
    /// Payload bytes flushed so far.
    len: u64,
    /// Checksum state over them.
    sum: u64,
    err: Option<std::io::Error>,
}

impl<W: Write> BlobWriter<W> {
    fn new(mut out: W, kind: u32, key: u128) -> Self {
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(BLOB_MAGIC);
        header.extend_from_slice(&kind.to_le_bytes());
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&key.to_le_bytes());
        let err = out.write_all(&header).err();
        // Room for a full buffer plus what may be appended after the last
        // spill check: a region name (a loaded one is at most 4 KiB).
        let buf = Vec::with_capacity(BLOB_BUF + 4096);
        BlobWriter { out, buf, len: 0, sum: FNV64_OFFSET, err }
    }

    /// Write out and fold the buffer's whole words.
    fn flush_words(&mut self) {
        let whole = self.buf.len() & !7;
        self.sum = fold_words(self.sum, &self.buf[..whole]);
        self.len += whole as u64;
        if self.err.is_none() {
            self.err = self.out.write_all(&self.buf[..whole]).err();
        }
        self.buf.drain(..whole);
    }

    /// Write out the rest of the payload and the footer.
    fn finish(mut self) -> std::io::Result<W> {
        self.flush_words();
        self.sum = fold_bytes(self.sum, &self.buf);
        self.len += self.buf.len() as u64;
        self.buf.extend_from_slice(&self.len.to_le_bytes());
        self.buf.extend_from_slice(&self.sum.to_le_bytes());
        self.buf.extend_from_slice(END_MAGIC);
        match self.err {
            Some(e) => Err(e),
            None => self.out.write_all(&self.buf).map(|()| self.out),
        }
    }
}

impl<W: Write> Payload for BlobWriter<W> {
    fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    #[inline]
    fn spill(&mut self) {
        if self.buf.len() >= BLOB_BUF {
            self.flush_words();
        }
    }
}

fn put_varint(out: &mut impl Payload, mut v: u64) {
    let buf = out.buf();
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
    out.spill();
}

fn get_varint(cur: &mut &[u8]) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = cur.split_first().ok_or(StoreError::Malformed("varint"))?;
        *cur = rest;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(StoreError::Malformed("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_bytes<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8], StoreError> {
    if cur.len() < n {
        return Err(StoreError::Malformed("short payload"));
    }
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    Ok(head)
}

fn put_regions(out: &mut impl Payload, regions: &[Region]) {
    put_varint(out, regions.len() as u64);
    for r in regions {
        put_varint(out, r.name.len() as u64);
        out.buf().extend_from_slice(r.name.as_bytes());
        put_varint(out, r.base);
        put_varint(out, r.bytes);
        out.buf().push(r.abft_protected as u8 | ((r.abft_detectable as u8) << 1));
    }
}

fn get_regions(cur: &mut &[u8]) -> Result<RegionMap, StoreError> {
    let count = get_varint(cur)?;
    if count > crate::packed::MAX_PACKED_REGIONS as u64 {
        return Err(StoreError::Malformed("region count"));
    }
    let mut regions = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_len = get_varint(cur)? as usize;
        if name_len > 4096 {
            return Err(StoreError::Malformed("region name length"));
        }
        let name = std::str::from_utf8(get_bytes(cur, name_len)?)
            .map_err(|_| StoreError::Malformed("region name utf-8"))?
            .to_string();
        let base = get_varint(cur)?;
        let bytes = get_varint(cur)?;
        // `RegionMap::from_regions` places the next region a guard page
        // past the last one's end, unchecked.
        if base.checked_add(bytes).and_then(|end| end.checked_add(PAGE_BYTES)).is_none() {
            return Err(StoreError::Malformed("region past the address space"));
        }
        let (&flags, rest) = cur.split_first().ok_or(StoreError::Malformed("region flags"))?;
        *cur = rest;
        regions.push(Region {
            name,
            base,
            bytes,
            abft_protected: flags & 1 != 0,
            abft_detectable: flags & 2 != 0,
        });
    }
    Ok(RegionMap::from_regions(regions))
}

/// Xor-delta + varint encode a word stream; `stride` is the xor
/// distance (1 for packed traces, 2 for two-word miss records so word-0s
/// delta against word-0s and word-1s against word-1s).
fn put_words(buf: &mut impl Payload, words: impl Iterator<Item = u64>, count: u64, stride: usize) {
    put_varint(buf, count);
    let mut prev = [0u64; 2];
    for (i, w) in words.enumerate() {
        let slot = i % stride;
        put_varint(buf, w ^ prev[slot]);
        prev[slot] = w;
    }
}

fn get_words(cur: &mut &[u8], stride: usize) -> Result<Vec<u64>, StoreError> {
    let count = get_varint(cur)?;
    // A word costs at least one payload byte; reject counts the
    // remaining payload cannot possibly hold before allocating.
    if count > cur.len() as u64 {
        return Err(StoreError::Malformed("word count"));
    }
    let mut words = Vec::with_capacity(count as usize);
    let mut prev = [0u64; 2];
    for i in 0..count as usize {
        let slot = i % stride;
        let w = get_varint(cur)? ^ prev[slot];
        prev[slot] = w;
        words.push(w);
    }
    Ok(words)
}

fn encode_trace(buf: &mut impl Payload, t: &PackedTrace) {
    put_regions(buf, t.regions().regions());
    put_varint(buf, t.len());
    put_varint(buf, t.instructions());
    put_words(buf, t.words(), t.word_count(), 1);
}

fn decode_trace(mut cur: &[u8]) -> Result<PackedTrace, StoreError> {
    let regions = get_regions(&mut cur)?;
    let len = get_varint(&mut cur)?;
    let instructions = get_varint(&mut cur)?;
    let words = get_words(&mut cur, 1)?;
    if !cur.is_empty() {
        return Err(StoreError::Malformed("trailing trace payload"));
    }
    PackedTrace::from_raw_parts(regions, words, len, instructions).map_err(StoreError::Malformed)
}

/// The head of a miss payload and of a `.simpoint` blob's sample section.
fn put_totals(buf: &mut impl Payload, t: &StreamTotals) {
    put_regions(buf, t.regions.regions());
    put_varint(buf, t.events);
    put_varint(buf, t.accesses);
    put_varint(buf, t.instructions);
    put_varint(buf, t.core_cycles);
    put_varint(buf, t.l1_hits);
    put_varint(buf, t.l1_misses);
    put_varint(buf, t.l2_hits);
    put_varint(buf, t.l2_misses);
    put_varint(buf, t.tallies.len() as u64);
    for r in &t.tallies {
        put_varint(buf, r.refs);
        put_varint(buf, r.l1_misses);
        put_varint(buf, r.llc_misses);
    }
    for c in [&t.l1_cfg, &t.l2_cfg] {
        put_varint(buf, c.capacity as u64);
        put_varint(buf, c.ways as u64);
        put_varint(buf, c.line_bytes as u64);
        put_varint(buf, c.latency_cycles);
    }
    put_varint(buf, t.threads as u64);
}

fn encode_miss(buf: &mut impl Payload, ms: &MissStream) {
    put_totals(buf, ms.totals());
    put_words(buf, ms.raw_words().iter().copied(), ms.raw_words().len() as u64, 2);
}

fn get_cache_cfg(cur: &mut &[u8]) -> Result<CacheConfig, StoreError> {
    Ok(CacheConfig {
        capacity: get_varint(cur)? as usize,
        ways: get_varint(cur)? as usize,
        line_bytes: get_varint(cur)? as usize,
        latency_cycles: get_varint(cur)?,
    })
}

fn get_totals(cur: &mut &[u8]) -> Result<StreamTotals, StoreError> {
    let regions = get_regions(cur)?;
    let events = get_varint(cur)?;
    let accesses = get_varint(cur)?;
    let instructions = get_varint(cur)?;
    let core_cycles = get_varint(cur)?;
    let l1_hits = get_varint(cur)?;
    let l1_misses = get_varint(cur)?;
    let l2_hits = get_varint(cur)?;
    let l2_misses = get_varint(cur)?;
    let tally_count = get_varint(cur)?;
    if tally_count != regions.regions().len() as u64 {
        return Err(StoreError::Malformed("tally count"));
    }
    let mut tallies = Vec::with_capacity(tally_count as usize);
    for _ in 0..tally_count {
        tallies.push(RegionTally {
            refs: get_varint(cur)?,
            l1_misses: get_varint(cur)?,
            llc_misses: get_varint(cur)?,
        });
    }
    Ok(StreamTotals {
        regions,
        events,
        accesses,
        instructions,
        core_cycles,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        tallies,
        l1_cfg: get_cache_cfg(cur)?,
        l2_cfg: get_cache_cfg(cur)?,
        threads: get_varint(cur)? as usize,
    })
}

fn decode_miss(mut cur: &[u8]) -> Result<MissStream, StoreError> {
    let totals = get_totals(&mut cur)?;
    let words = get_words(&mut cur, 2)?;
    if !cur.is_empty() {
        return Err(StoreError::Malformed("trailing miss payload"));
    }
    MissStream::from_raw_parts(totals, words).map_err(StoreError::Malformed)
}

fn encode_simpoint(buf: &mut impl Payload, sel: &SimPointSelection) {
    let cfg = sel.config();
    put_varint(buf, cfg.interval);
    put_varint(buf, cfg.max_phases as u64);
    put_varint(buf, cfg.seed);
    put_varint(buf, cfg.iterations as u64);
    put_varint(buf, cfg.strata as u64);
    put_varint(buf, sel.events());
    put_varint(buf, sel.slices());
    put_varint(buf, sel.dim() as u64);
    put_varint(buf, sel.est_error().to_bits());
    for &v in sel.raw_fingerprints() {
        put_varint(buf, v.to_bits());
    }
    for &a in sel.assignments() {
        put_varint(buf, a as u64);
    }
    put_varint(buf, sel.phases().len() as u64);
    for p in sel.phases() {
        put_varint(buf, p.weight.to_bits());
        put_varint(buf, p.start);
        put_varint(buf, p.end);
        put_varint(buf, p.scale.to_bits());
        put_varint(buf, p.cursor.idx as u64);
        put_varint(buf, p.cursor.run_pos as u64);
        put_varint(buf, p.cursor.cycles);
    }
}

/// Decode the selection section of a `.simpoint` payload, leaving `cur` at
/// the sample section behind it.
fn decode_simpoint(cur: &mut &[u8]) -> Result<SimPointSelection, StoreError> {
    let config = SimPointConfig {
        interval: get_varint(cur)?,
        max_phases: get_varint(cur)? as usize,
        seed: get_varint(cur)?,
        iterations: get_varint(cur)? as usize,
        strata: get_varint(cur)? as usize,
    };
    let events = get_varint(cur)?;
    let slices = get_varint(cur)?;
    let dim = get_varint(cur)? as usize;
    let est_error = f64::from_bits(get_varint(cur)?);
    // Each fingerprint/assignment entry costs at least one payload byte;
    // reject counts the remaining payload cannot possibly hold.
    let fp_count = slices.checked_mul(dim as u64).ok_or(StoreError::Malformed("fp count"))?;
    if fp_count > cur.len() as u64 || slices > cur.len() as u64 {
        return Err(StoreError::Malformed("fp count"));
    }
    let mut fingerprints = Vec::with_capacity(fp_count as usize);
    for _ in 0..fp_count {
        fingerprints.push(f64::from_bits(get_varint(cur)?));
    }
    let mut assignments = Vec::with_capacity(slices as usize);
    for _ in 0..slices {
        let a = get_varint(cur)?;
        if a > u32::MAX as u64 {
            return Err(StoreError::Malformed("cluster id"));
        }
        assignments.push(a as u32);
    }
    let phase_count = get_varint(cur)?;
    if phase_count > slices {
        return Err(StoreError::Malformed("phase count"));
    }
    let mut phases = Vec::with_capacity(phase_count as usize);
    for _ in 0..phase_count {
        let weight = f64::from_bits(get_varint(cur)?);
        let start = get_varint(cur)?;
        let end = get_varint(cur)?;
        let scale = f64::from_bits(get_varint(cur)?);
        let idx = get_varint(cur)? as usize;
        let run_pos = get_varint(cur)? as usize;
        let cycles = get_varint(cur)?;
        phases.push(SimPointPhase {
            weight,
            start,
            end,
            scale,
            cursor: SliceCursor::at(idx, run_pos, cycles),
        });
    }
    SimPointSelection::from_raw_parts(SimPointParts {
        config,
        events,
        slices,
        dim,
        fingerprints,
        assignments,
        phases,
        est_error,
    })
    .map_err(StoreError::Malformed)
}

/// The sample section: the condensed stream's totals, the slices' records
/// and where each slice starts.
fn encode_sample(buf: &mut impl Payload, sample: &PhaseSample) {
    let (words, offsets) = sample.raw_parts();
    put_totals(buf, sample.totals());
    put_words(buf, words.iter().copied(), words.len() as u64, 2);
    for &at in offsets {
        put_varint(buf, at as u64);
    }
}

/// Decode a whole `.simpoint` payload: the selection, then the sample
/// cut for it (one slice offset per phase of the selection).
fn decode_sample(mut cur: &[u8]) -> Result<PhaseSample, StoreError> {
    let selection = decode_simpoint(&mut cur)?;
    let totals = get_totals(&mut cur)?;
    let words = get_words(&mut cur, 2)?;
    let mut offsets = Vec::with_capacity(selection.phases().len());
    for _ in selection.phases() {
        offsets.push(get_varint(&mut cur)? as usize);
    }
    if !cur.is_empty() {
        return Err(StoreError::Malformed("trailing simpoint payload"));
    }
    PhaseSample::from_raw_parts(totals, words, offsets, selection).map_err(StoreError::Malformed)
}

// ---------------------------------------------------------------------

/// Load/miss/evict counter snapshot for one [`ArtifactStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Loads served from an intact on-disk blob.
    pub hits: u64,
    /// Load attempts that found no usable blob (absent or evicted).
    pub misses: u64,
    /// Blobs written (each a temp-file + atomic-rename pair).
    pub writes: u64,
    /// Corrupt blobs deleted instead of trusted.
    pub evictions: u64,
    /// `save_*` calls that persisted nothing (a full or read-only store, a
    /// write that failed mid-blob, a refused key): an artifact a
    /// [`crate::trace_cache::TraceCache`] built is then served from memory,
    /// and the next process rebuilds it.
    pub write_failures: u64,
}

impl StoreMetrics {
    /// Counter delta against an earlier snapshot of the same store.
    pub fn since(&self, earlier: &StoreMetrics) -> StoreMetrics {
        StoreMetrics {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writes: self.writes - earlier.writes,
            evictions: self.evictions - earlier.evictions,
            write_failures: self.write_failures - earlier.write_failures,
        }
    }

    /// Fraction of load attempts served from disk.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content-addressed on-disk store of packed traces and miss streams.
/// Open one over a directory and attach it to a
/// [`crate::trace_cache::TraceCache`] with
/// [`crate::trace_cache::TraceCache::attach_store`]; warm-disk processes
/// then skip trace generation and cache filtering entirely.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    write_failures: AtomicU64,
}

impl ArtifactStore {
    /// Open (creating if absent) a store rooted at `root`. An empty
    /// path is rejected: `create_dir_all("")` succeeds, and every blob
    /// would then land in the working directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, StoreError> {
        let root = root.into();
        if root.as_os_str().is_empty() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "store root is an empty path",
            )));
        }
        std::fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// On-disk path of a packed-trace artifact.
    pub fn trace_path(&self, params: KernelParams) -> PathBuf {
        self.root.join(format!("{:032x}.trace", trace_key(params)))
    }

    /// On-disk path of a miss-stream artifact.
    pub fn miss_path(&self, key: &FilterKey) -> PathBuf {
        self.root.join(format!("{:032x}.miss", miss_key(key)))
    }

    /// On-disk path of a phase-selection artifact.
    pub fn simpoint_path(&self, key: &FilterKey, cfg: &SimPointConfig) -> PathBuf {
        self.root.join(format!("{:032x}.simpoint", simpoint_key(key, cfg)))
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
        }
    }

    /// Refuse to save an artifact whose geometry is not its key's: no load
    /// would ever accept it. Counted as a write failure.
    fn refuse(&self) -> Result<(), StoreError> {
        self.write_failures.fetch_add(1, Ordering::Relaxed);
        Err(StoreError::KeyMismatch)
    }

    /// Load a packed trace, or `None` when absent or evicted as corrupt.
    pub fn load_trace(&self, params: KernelParams) -> Option<PackedTrace> {
        self.load_blob(&self.trace_path(params), KIND_TRACE, trace_key(params), decode_trace)
    }

    /// Persist a packed trace (best-effort; the caller already holds the
    /// in-memory artifact either way). Every `save_*` that fails counts a
    /// [`StoreMetrics::write_failures`].
    pub fn save_trace(&self, params: KernelParams, t: &PackedTrace) -> Result<(), StoreError> {
        let path = self.trace_path(params);
        self.save_blob(&path, KIND_TRACE, trace_key(params), |out| encode_trace(out, t))
    }

    /// Load a miss stream, or `None` when absent or evicted as corrupt.
    /// The payload repeats the filter geometry the key digest already
    /// covers; a blob whose two copies disagree is corrupt, and is evicted
    /// here rather than failing the geometry assertion at replay.
    pub fn load_miss(&self, key: &FilterKey) -> Option<MissStream> {
        self.load_blob(&self.miss_path(key), KIND_MISS, miss_key(key), |payload| {
            let ms = decode_miss(payload)?;
            if ms.matches(&key.l1, &key.l2, key.threads) {
                Ok(ms)
            } else {
                Err(StoreError::KeyMismatch)
            }
        })
    }

    /// Persist a miss stream. A stream filtered under another geometry
    /// than the key's is refused ([`StoreError::KeyMismatch`]): no load
    /// would ever accept it.
    pub fn save_miss(&self, key: &FilterKey, ms: &MissStream) -> Result<(), StoreError> {
        if !ms.matches(&key.l1, &key.l2, key.threads) {
            return self.refuse();
        }
        self.save_blob(&self.miss_path(key), KIND_MISS, miss_key(key), |out| encode_miss(out, ms))
    }

    /// Load the phase selection of a `.simpoint` blob, or `None` when the
    /// blob is absent or evicted as corrupt. The whole payload is
    /// checksummed, but only its selection section is decoded: the
    /// selection pairs with the full stream ([`ArtifactStore::load_miss`]),
    /// the sample behind it is [`ArtifactStore::load_sample`]'s.
    pub fn load_simpoint(
        &self,
        key: &FilterKey,
        cfg: &SimPointConfig,
    ) -> Option<SimPointSelection> {
        self.load_blob(
            &self.simpoint_path(key, cfg),
            KIND_SIMPOINT,
            simpoint_key(key, cfg),
            |mut payload| decode_simpoint(&mut payload),
        )
    }

    /// Load a phase sample — all a sampled cell replays — or `None` when
    /// the blob is absent or evicted as corrupt. Beyond the framing checks
    /// the parts must fit together (slice offsets, slice lengths, records,
    /// tallies and event counts: `PhaseSample`'s own check) and the
    /// filter geometry inside the payload must be the key's, so a blob
    /// that would fail at replay is evicted here instead.
    pub fn load_sample(&self, key: &FilterKey, cfg: &SimPointConfig) -> Option<PhaseSample> {
        self.load_blob(
            &self.simpoint_path(key, cfg),
            KIND_SIMPOINT,
            simpoint_key(key, cfg),
            |payload| {
                let sample = decode_sample(payload)?;
                if sample.totals().matches(&key.l1, &key.l2, key.threads) {
                    Ok(sample)
                } else {
                    Err(StoreError::KeyMismatch)
                }
            },
        )
    }

    /// Persist a phase sample: its selection, then its slices. A sample
    /// condensed under another geometry than the key's is refused
    /// ([`StoreError::KeyMismatch`]), as by [`ArtifactStore::save_miss`].
    pub fn save_simpoint(
        &self,
        key: &FilterKey,
        cfg: &SimPointConfig,
        sample: &PhaseSample,
    ) -> Result<(), StoreError> {
        if !sample.totals().matches(&key.l1, &key.l2, key.threads) {
            return self.refuse();
        }
        let path = self.simpoint_path(key, cfg);
        self.save_blob(&path, KIND_SIMPOINT, simpoint_key(key, cfg), |out| {
            encode_simpoint(out, sample.selection());
            encode_sample(out, sample);
        })
    }

    /// Frame and write one blob: `write_payload` streams the payload
    /// through a [`BlobWriter`] into a temp file, so the artifact's bytes
    /// are never held whole a second time.
    fn save_blob(
        &self,
        path: &Path,
        kind: u32,
        key: u128,
        write_payload: impl FnOnce(&mut BlobWriter<File>),
    ) -> Result<(), StoreError> {
        self.save_blob_with(path, kind, key, |tmp| File::create(tmp), write_payload)
    }

    /// [`ArtifactStore::save_blob`] into whatever `create` opens at the
    /// temp path. A blob that is not written whole is counted as a write
    /// failure.
    fn save_blob_with<W: Write>(
        &self,
        path: &Path,
        kind: u32,
        key: u128,
        create: impl FnOnce(&Path) -> std::io::Result<W>,
        write_payload: impl FnOnce(&mut BlobWriter<W>),
    ) -> Result<(), StoreError> {
        // Temp file + rename: a crash or a failed write mid-blob never
        // leaves a partial blob under an addressable name, and the rename
        // is atomic on the same filesystem. The name is unique per write,
        // not per process: two writers of one key must not share a temp
        // file, or one renames it while the other is still writing.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
        let written = create(&tmp).and_then(|out| {
            let mut blob = BlobWriter::new(out, kind, key);
            write_payload(&mut blob);
            blob.finish()
        });
        // The writer is closed before its file is renamed.
        if let Err(e) = written.and_then(|out| {
            drop(out);
            std::fs::rename(&tmp, path)
        }) {
            let _ = std::fs::remove_file(&tmp);
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            return Err(e.into());
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn load_blob<T>(
        &self,
        path: &Path,
        kind: u32,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Option<T> {
        let blob = match std::fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                // Absent (or unreadable): a plain miss; nothing to evict.
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::verify_and_decode(&blob, kind, key, decode) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(_) => {
                // Corrupt entries are evicted, never trusted: delete the
                // blob so the caller's regeneration replaces it.
                let _ = std::fs::remove_file(path);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn verify_and_decode<T>(
        blob: &[u8],
        kind: u32,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if blob.len() < HEADER_BYTES + FOOTER_BYTES {
            return Err(StoreError::Truncated);
        }
        if &blob[..8] != BLOB_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let (payload, footer) =
            blob[HEADER_BYTES..].split_at(blob.len() - HEADER_BYTES - FOOTER_BYTES);
        let stored_len =
            u64::from_le_bytes(footer[0..8].try_into().map_err(|_| StoreError::Truncated)?);
        let stored_sum =
            u64::from_le_bytes(footer[8..16].try_into().map_err(|_| StoreError::Truncated)?);
        if &footer[16..24] != END_MAGIC || stored_len != payload.len() as u64 {
            return Err(StoreError::Truncated);
        }
        if stored_sum != checksum(payload) {
            return Err(StoreError::ChecksumMismatch);
        }
        let blob_kind =
            u32::from_le_bytes(blob[8..12].try_into().map_err(|_| StoreError::Truncated)?);
        let version =
            u32::from_le_bytes(blob[12..16].try_into().map_err(|_| StoreError::Truncated)?);
        if blob_kind != kind || version != FORMAT_VERSION {
            return Err(StoreError::BadKind);
        }
        let blob_key =
            u128::from_le_bytes(blob[16..32].try_into().map_err(|_| StoreError::Truncated)?);
        if blob_key != key {
            return Err(StoreError::KeyMismatch);
        }
        decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::miss_stream::{run_len, KIND_MASK, KIND_SHIFT, MAX_MISS_DELTA, WB_SHIFT};
    use crate::packed::MAX_PACKED_OFFSET;
    use crate::workloads::DgemmParams;
    use std::sync::Arc;

    fn tiny() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("abft-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    #[test]
    fn an_empty_root_is_rejected_not_rooted_at_the_cwd() {
        match ArtifactStore::open("") {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            other => panic!("empty root must be an InvalidInput error, got {other:?}"),
        }
    }

    #[test]
    fn digests_are_stable_and_key_sensitive() {
        assert_eq!(trace_key(tiny()), trace_key(tiny()));
        let other =
            KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
        assert_ne!(trace_key(tiny()), trace_key(other));
        let cfg = SystemConfig::default();
        let k1 = FilterKey::new(tiny(), &cfg);
        let mut half = cfg.clone();
        half.l2.capacity /= 2;
        let k2 = FilterKey::new(tiny(), &half);
        assert_ne!(miss_key(&k1), miss_key(&k2));
        assert_ne!(trace_key(tiny()), miss_key(&k1), "kinds are domain-separated");
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut cur = buf.as_slice();
        for &v in &vals {
            assert_eq!(get_varint(&mut cur).unwrap(), v);
        }
        assert!(cur.is_empty());
        assert!(get_varint(&mut cur).is_err(), "empty input is malformed, not a panic");
    }

    #[test]
    fn trace_blob_round_trips_bit_identically() {
        let store = temp_store("trace-rt");
        let built = Arc::new(tiny().build_packed());
        store.save_trace(tiny(), &built).unwrap();
        let loaded = Arc::new(store.load_trace(tiny()).expect("intact blob loads"));
        assert_eq!(loaded.len(), built.len());
        assert_eq!(loaded.instructions(), built.instructions());
        let accesses = |t: &Arc<PackedTrace>| crate::Trace::from_source(&mut t.replay()).accesses;
        assert_eq!(accesses(&loaded), accesses(&built));
        assert_eq!(store.metrics().hits, 1);
        assert_eq!(store.metrics().writes, 1);
    }

    #[test]
    fn miss_blob_round_trips_bit_identically() {
        let store = temp_store("miss-rt");
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        store.save_miss(&key, &ms).unwrap();
        let loaded = store.load_miss(&key).expect("intact blob loads");
        assert_eq!(loaded.totals(), ms.totals());
        assert_eq!(loaded.raw_words(), ms.raw_words());
        assert!(loaded.matches(&cfg.l1, &cfg.l2, cfg.threads));
        let evs: Vec<_> = loaded.iter().collect();
        let expect: Vec<_> = ms.iter().collect();
        assert_eq!(evs, expect);
    }

    #[test]
    fn simpoint_blob_round_trips_bit_identically() {
        let store = temp_store("simpoint-rt");
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        let sp = SimPointConfig { interval: 512, max_phases: 3, strata: 2, ..Default::default() };
        let sel = Arc::new(SimPointSelection::build(&ms, sp));
        let sample = PhaseSample::condense(&ms, Arc::clone(&sel));
        assert!(sample.packed_bytes() < ms.packed_bytes() / 2, "six slices are not the stream");
        store.save_simpoint(&key, &sp, &sample).unwrap();
        let loaded = store.load_simpoint(&key, &sp).expect("intact blob loads");
        assert_eq!(loaded, *sel, "selection must round-trip bit-identically");
        let loaded = store.load_sample(&key, &sp).expect("intact blob loads");
        assert_eq!(loaded, sample, "sample must round-trip bit-identically");
        for (k, ph) in sel.phases().iter().enumerate() {
            let n = ph.events() as usize;
            let got: Vec<_> = loaded.open(k).take(n).collect();
            let want: Vec<_> = ms.events_from(ph.cursor()).take(n).collect();
            assert_eq!(got, want, "phase {k} decodes the stream's events");
        }
        // A different sampling config addresses a different blob.
        let other = SimPointConfig { interval: 4096, ..sp };
        assert_ne!(simpoint_key(&key, &sp), simpoint_key(&key, &other));
        assert!(store.load_simpoint(&key, &other).is_none());
    }

    #[test]
    fn absent_blob_is_a_plain_miss() {
        let store = temp_store("absent");
        assert!(store.load_trace(tiny()).is_none());
        let m = store.metrics();
        assert_eq!((m.hits, m.misses, m.evictions), (0, 1, 0));
        assert_eq!(m.hit_rate(), 0.0);
    }

    #[test]
    fn corrupt_blob_is_evicted_not_trusted() {
        let store = temp_store("corrupt");
        let built = tiny().build_packed();
        store.save_trace(tiny(), &built).unwrap();
        let path = store.trace_path(tiny());

        // Flip one payload byte: checksum mismatch, evicted.
        let mut blob = std::fs::read(&path).unwrap();
        blob[HEADER_BYTES + 10] ^= 0x40;
        std::fs::write(&path, &blob).unwrap();
        assert!(store.load_trace(tiny()).is_none());
        assert!(!path.exists(), "corrupt blob must be deleted");
        assert_eq!(store.metrics().evictions, 1);

        // Truncated blob: evicted.
        store.save_trace(tiny(), &built).unwrap();
        let blob = std::fs::read(&path).unwrap();
        std::fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        assert!(store.load_trace(tiny()).is_none());
        assert!(!path.exists());
        assert_eq!(store.metrics().evictions, 2);

        // A fresh save then load works again.
        store.save_trace(tiny(), &built).unwrap();
        assert!(store.load_trace(tiny()).is_some());
    }

    /// A few hundred accesses through caches of a few lines: a trace, a
    /// miss stream and a phase sample whose blobs are small enough to
    /// attack at every byte.
    fn small_artifacts() -> (FilterKey, SimPointConfig, PackedTrace, MissStream, PhaseSample) {
        let mut rm = RegionMap::new();
        let a = rm.alloc("a", 64 * 96, true);
        let b = rm.alloc("b", 64 * 96, false);
        let mut t = crate::trace::Trace::new(rm.clone());
        for pass in 0..3u64 {
            for i in 0..96u64 {
                t.push(rm.get(a).base + i * 64, a, pass == 1, 2);
                t.push(rm.get(b).base + (i * 7 % 96) * 64, b, i % 3 == 0, (i % 4) as u32);
            }
        }
        let key = FilterKey {
            params: tiny(),
            l1: CacheConfig { capacity: 512, ways: 2, line_bytes: 64, latency_cycles: 1 },
            l2: CacheConfig { capacity: 2048, ways: 4, line_bytes: 64, latency_cycles: 20 },
            threads: 3,
        };
        let packed = PackedTrace::from_source(&mut t.replay());
        let ms = MissStream::build(&mut t.replay(), key.l1, key.l2, key.threads);
        let sp = SimPointConfig { interval: 32, max_phases: 4, ..Default::default() };
        let sel = Arc::new(SimPointSelection::build(&ms, sp));
        assert!(ms.events() > 200 && sel.phases().len() > 1, "artifacts must not be trivial");
        let sample = PhaseSample::condense(&ms, sel);
        (key, sp, packed, ms, sample)
    }

    /// `blob` written under `path` must be unloadable: `load` returns
    /// `false`, the file is gone and exactly one eviction is counted.
    fn assert_evicted(
        store: &ArtifactStore,
        path: &Path,
        blob: &[u8],
        load: &dyn Fn() -> bool,
        what: std::fmt::Arguments<'_>,
    ) {
        let before = store.metrics().evictions;
        std::fs::write(path, blob).unwrap();
        assert!(!load(), "{what}: a damaged blob was served");
        assert!(!path.exists(), "{what}: the damaged blob was left in place");
        assert_eq!(store.metrics().evictions, before + 1, "{what}");
    }

    #[test]
    fn every_byte_flip_and_every_truncation_of_every_blob_kind_is_evicted() {
        let store = temp_store("hostile");
        let (key, sp, packed, ms, sample) = small_artifacts();
        store.save_trace(key.params, &packed).unwrap();
        store.save_miss(&key, &ms).unwrap();
        store.save_simpoint(&key, &sp, &sample).unwrap();
        // The `.simpoint` blob has two readers; each must refuse all of it.
        let kinds: [(PathBuf, &dyn Fn() -> bool); 4] = [
            (store.trace_path(key.params), &|| store.load_trace(key.params).is_some()),
            (store.miss_path(&key), &|| store.load_miss(&key).is_some()),
            (store.simpoint_path(&key, &sp), &|| store.load_simpoint(&key, &sp).is_some()),
            (store.simpoint_path(&key, &sp), &|| store.load_sample(&key, &sp).is_some()),
        ];
        for (path, load) in kinds {
            let blob = std::fs::read(&path).unwrap();
            assert!(load(), "the intact blob loads");
            assert!(blob.len() < 8192, "{} bytes is not a small blob", blob.len());
            for at in 0..blob.len() {
                // One bit per offset, every bit position in turn, then
                // the whole byte.
                for mask in [1u8 << (at % 8), 0xff] {
                    let mut bad = blob.clone();
                    bad[at] ^= mask;
                    let what = format_args!("{path:?} ^{mask:#x} at {at}");
                    assert_evicted(&store, &path, &bad, load, what);
                }
            }
            for len in 0..blob.len() {
                assert_evicted(
                    &store,
                    &path,
                    &blob[..len],
                    load,
                    format_args!("{path:?} cut to {len}"),
                );
            }
            // Evicted by now; the blob's other reader wants it back.
            std::fs::write(&path, &blob).unwrap();
        }
    }

    /// Damage that a checksum cannot see (the writer's own bug, or an
    /// attacker who recomputes it) must still come back as a typed error
    /// or a value, never a panic or an allocation sized by the payload's
    /// own claims — and a value that comes back must replay in full.
    #[test]
    fn payload_damage_under_a_matching_checksum_never_panics() {
        fn damage(write_payload: impl FnOnce(&mut Vec<u8>), decode: impl Fn(&[u8])) {
            let mut payload = Vec::new();
            write_payload(&mut payload);
            for at in 0..payload.len() {
                for mask in [1u8 << (at % 8), 0x80, 0xff] {
                    let mut bad = payload.clone();
                    bad[at] ^= mask;
                    decode(&bad);
                }
            }
        }
        let (_, _, packed, ms, sample) = small_artifacts();
        damage(
            |p| encode_trace(p, &packed),
            |p| {
                if let Ok(t) = decode_trace(p) {
                    let len = t.len();
                    let back = crate::trace::Trace::from_source(&mut Arc::new(t).replay());
                    assert_eq!(back.len() as u64, len);
                }
            },
        );
        damage(
            |p| encode_miss(p, &ms),
            |p| {
                if let Ok(ms) = decode_miss(p) {
                    assert_eq!(ms.iter().count() as u64, ms.events());
                }
            },
        );
        damage(
            |p| {
                encode_simpoint(p, sample.selection());
                encode_sample(p, &sample);
            },
            |mut p| {
                // A sample that decodes has passed its audit: replaying
                // every slice of it must be safe.
                if let Ok(s) = decode_sample(p) {
                    for (k, ph) in s.selection().phases().iter().enumerate() {
                        assert_eq!(
                            s.open(k).take(ph.events() as usize).count() as u64,
                            ph.events()
                        );
                    }
                }
                drop(decode_simpoint(&mut p));
            },
        );
        // A count no payload could back is refused before any allocation:
        // of words, of fingerprint rows (slices x dim), of phases.
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert!(matches!(get_words(&mut huge.as_slice(), 1), Err(StoreError::Malformed(_))));
        for field in [6, 7] {
            let mut p = Vec::new();
            (0..9).for_each(|i| put_varint(&mut p, if i == field { u64::MAX } else { 1 }));
            assert!(matches!(decode_sample(&p), Err(StoreError::Malformed(_))), "field {field}");
        }
    }

    /// `payload` framed as a current `.simpoint` blob under `key`/`sp`.
    fn write_simpoint_blob(
        store: &ArtifactStore,
        key: &FilterKey,
        sp: &SimPointConfig,
        payload: &[u8],
    ) {
        let path = store.simpoint_path(key, sp);
        let fill = |out: &mut BlobWriter<File>| out.buf().extend_from_slice(payload);
        store.save_blob(&path, KIND_SIMPOINT, simpoint_key(key, sp), fill).unwrap();
    }

    /// A payload built from damaged parts must be refused three ways: its
    /// decoder calls it `Malformed`; framed as a current blob (`path`,
    /// `kind`, `key`) it is not served by `load`; and that blob is deleted
    /// and counted as one eviction.
    fn assert_refused<T>(
        store: &ArtifactStore,
        (path, kind, key): (&Path, u32, u128),
        payload: &[u8],
        decode: fn(&[u8]) -> Result<T, StoreError>,
        load: &dyn Fn() -> bool,
        what: &str,
    ) {
        let decoded = decode(payload).map(drop);
        assert!(matches!(decoded, Err(StoreError::Malformed(_))), "{what}: {decoded:?}");
        let before = store.metrics().evictions;
        store.save_blob(path, kind, key, |out| out.buf().extend_from_slice(payload)).unwrap();
        assert!(!load(), "{what}: served");
        assert!(!path.exists(), "{what}: left in place");
        assert_eq!(store.metrics().evictions, before + 1, "{what}");
    }

    /// `payload`, whose registry `regions` opens it, with `to` written
    /// there instead — a registry a `RegionMap` could not even hold.
    fn with_regions(payload: &[u8], regions: &[Region], to: &[Region]) -> Vec<u8> {
        let (mut from, mut out) = (Vec::new(), Vec::new());
        put_regions(&mut from, regions);
        put_regions(&mut out, to);
        assert!(payload.starts_with(&from), "the payload opens with its registry");
        out.extend_from_slice(&payload[from.len()..]);
        out
    }

    /// The thread cycles a miss stream's records step its track through.
    fn cycle_track(words: &[u64]) -> u64 {
        words.chunks_exact(2).map(|r| (r[1] & MAX_MISS_DELTA) * run_len(r[0])).sum()
    }

    /// A base for every region at which the registry still fits below
    /// 2^64 but a 33-bit offset from it does not.
    const HIGH_BASE: u64 = (u64::MAX - (1 << 32)) & !(PAGE_BYTES - 1);

    #[test]
    fn a_well_checksummed_but_inconsistent_miss_stream_is_evicted() {
        let store = temp_store("inconsistent-miss");
        let (key, _, _, ms, _) = small_artifacts();
        let threads = ms.filter_config().2 as u64;
        assert!(cycle_track(ms.raw_words()) / threads > 0 && threads > 1);
        assert_eq!(ms.regions().regions().len(), 2);

        // The totals, the records, and the registry the payload holds.
        type Parts = (StreamTotals, Vec<u64>, Vec<Region>);
        type Damage = fn(&mut Parts);
        let cases: [(&str, Damage); 13] = [
            ("a record of region 63 of 2", |p| p.1[0] |= 0x3f << 17),
            ("a record of an unknown kind", |p| p.1[0] |= KIND_MASK << KIND_SHIFT),
            ("an event too many", |p| p.0.events += 1),
            ("an event too few", |p| p.0.events -= 1),
            ("LLC misses that are not the demand events", |p| {
                // One access more that missed both levels: the L1 and L2
                // accounting and the tallies still add up.
                let t = &mut p.0;
                (t.accesses, t.l1_misses, t.l2_misses) =
                    (t.accesses + 1, t.l1_misses + 1, t.l2_misses + 1);
                let r = &mut t.tallies[0];
                (r.refs, r.l1_misses, r.llc_misses) =
                    (r.refs + 1, r.l1_misses + 1, r.llc_misses + 1);
            }),
            ("a cycle track past the core cycles", |p| {
                p.0.core_cycles = cycle_track(&p.1) / p.0.threads as u64 - 1;
            }),
            ("no threads", |p| p.0.threads = 0),
            ("tallies that do not sum to the totals", |p| p.0.tallies[1].refs += 1),
            ("L1 hits and misses that are not the accesses", |p| p.0.l1_hits += 1),
            ("an odd word count", |p| p.1.truncate(p.1.len() - 1)),
            ("a region based at 2^64 - 65", |p| p.2[0].base = u64::MAX - 64),
            ("a record past the address space", |p| {
                p.2.iter_mut().for_each(|r| r.base = HIGH_BASE);
                p.1[0] |= MAX_PACKED_OFFSET << 31;
            }),
            ("a write-back line below address 0", |p| p.1[1] |= u64::MAX << WB_SHIFT),
        ];
        let path = store.miss_path(&key);
        let blob = (path.as_path(), KIND_MISS, miss_key(&key));
        for (what, damage) in cases {
            let regions = ms.regions().regions();
            let mut parts = (ms.totals().clone(), ms.raw_words().to_vec(), regions.to_vec());
            damage(&mut parts);
            let mut payload = Vec::new();
            put_totals(&mut payload, &parts.0);
            put_words(&mut payload, parts.1.iter().copied(), parts.1.len() as u64, 2);
            let payload = with_regions(&payload, regions, &parts.2);
            let load = || store.load_miss(&key).is_some();
            assert_refused(&store, blob, &payload, decode_miss, &load, what);
        }
    }

    #[test]
    fn a_well_checksummed_but_inconsistent_trace_is_evicted() {
        let store = temp_store("inconsistent-trace");
        let (key, _, packed, _, _) = small_artifacts();
        assert!(packed.instructions() > packed.len() + 2);

        // The accesses, the instructions, the words, and the registry.
        type Parts = (u64, u64, Vec<u64>, Vec<Region>);
        type Damage = fn(&mut Parts);
        let cases: [(&str, Damage); 7] = [
            ("a word of region 63 of 2", |p| p.2[0] |= 0x3f << 17),
            ("an access too many", |p| p.0 += 1),
            ("an access too few", |p| p.0 -= 1),
            ("fewer instructions than accesses", |p| p.1 = p.0 - 1),
            ("a run past the 33-bit offset range", |p| {
                // The last offset and a run of two; the trace counts the
                // run's accesses, so only the bound is wrong.
                p.0 = p.0 + 2 - crate::packed::run_len(p.2[0]) as u64;
                p.2[0] = (p.2[0] & ((1 << 23) - 1)) | (MAX_PACKED_OFFSET << 31) | (1 << 23);
            }),
            ("a region based at 2^64 - 65", |p| p.3[0].base = u64::MAX - 64),
            ("a run past the address space", |p| {
                p.3.iter_mut().for_each(|r| r.base = HIGH_BASE);
                p.2[0] |= MAX_PACKED_OFFSET << 31;
            }),
        ];
        let path = store.trace_path(key.params);
        let blob = (path.as_path(), KIND_TRACE, trace_key(key.params));
        for (what, damage) in cases {
            let words = packed.words().collect();
            let regions = packed.regions().regions().to_vec();
            let mut parts = (packed.len(), packed.instructions(), words, regions);
            damage(&mut parts);
            let mut payload = Vec::new();
            put_regions(&mut payload, &parts.3);
            put_varint(&mut payload, parts.0);
            put_varint(&mut payload, parts.1);
            put_words(&mut payload, parts.2.iter().copied(), parts.2.len() as u64, 1);
            let load = || store.load_trace(key.params).is_some();
            assert_refused(&store, blob, &payload, decode_trace, &load, what);
        }
    }

    #[test]
    fn a_well_checksummed_but_inconsistent_sample_is_evicted() {
        let store = temp_store("inconsistent");
        let (key, sp, _, _, sample) = small_artifacts();
        let sel = sample.selection();
        let (words, offsets) = sample.raw_parts();
        assert!(offsets.len() > 2 && words.len() > 4);

        type Parts = (StreamTotals, Vec<u64>, Vec<usize>);
        type Damage = fn(&mut Parts);
        let cases: [(&str, Damage); 14] = [
            ("an offset too few", |p| p.2.truncate(1)),
            ("an offset too many", |p| p.2.push(0)),
            ("an odd offset", |p| p.2[1] += 1),
            ("offsets that do not ascend", |p| p.2[2] = p.2[1]),
            ("a first slice that is not first", |p| p.2[0] = 2),
            ("an offset past the words", |p| *p.2.last_mut().unwrap() = p.1.len() + 2),
            ("a slice short of its phase", |p| p.1.truncate(p.1.len() - 2)),
            ("an odd word count", |p| p.1.truncate(p.1.len() - 1)),
            ("a record of an unknown region", |p| p.1[0] |= 0x3f << 17),
            ("a record of an unknown kind", |p| p.1[0] |= KIND_MASK << KIND_SHIFT),
            ("a slice cycle track past the core cycles", |p| p.0.core_cycles = 0),
            ("a tally too few", |p| p.0.tallies.truncate(1)),
            ("tallies that do not sum to the totals", |p| p.0.accesses += 1),
            ("an event count that is not the selection's", |p| p.0.events += 1),
        ];
        let path = store.simpoint_path(&key, &sp);
        let blob = (path.as_path(), KIND_SIMPOINT, simpoint_key(&key, &sp));
        for (what, damage) in cases {
            let mut parts = (sample.totals().clone(), words.to_vec(), offsets.to_vec());
            damage(&mut parts);
            let mut payload = Vec::new();
            encode_simpoint(&mut payload, sel);
            put_totals(&mut payload, &parts.0);
            put_words(&mut payload, parts.1.iter().copied(), parts.1.len() as u64, 2);
            parts.2.iter().for_each(|&at| put_varint(&mut payload, at as u64));
            let load = || store.load_sample(&key, &sp).is_some();
            assert_refused(&store, blob, &payload, decode_sample, &load, what);
        }
    }

    #[test]
    fn a_sample_whose_payload_geometry_differs_from_its_key_is_evicted() {
        let store = temp_store("sample-geometry");
        let (key, sp, _, _, sample) = small_artifacts();
        let other = FilterKey { threads: key.threads + 1, ..key };
        assert!(matches!(store.save_simpoint(&other, &sp, &sample), Err(StoreError::KeyMismatch)));
        assert_eq!(store.metrics().writes, 0);

        let mut payload = Vec::new();
        encode_simpoint(&mut payload, sample.selection());
        encode_sample(&mut payload, &sample);
        write_simpoint_blob(&store, &other, &sp, &payload);
        assert!(store.load_sample(&other, &sp).is_none());
        assert!(!store.simpoint_path(&other, &sp).exists(), "the inconsistent blob is evicted");
        assert_eq!(store.metrics().evictions, 1);
    }

    /// Byte-wise FNV-1a 64: the version-1 payload checksum.
    fn checksum_v1(bytes: &[u8]) -> u64 {
        bytes.iter().fold(FNV64_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV64_PRIME))
    }

    #[test]
    fn the_checksum_is_pinned_to_the_format_version() {
        // 27 bytes: three whole words and a three-byte tail. A change to
        // the sum is a new blob format and needs a version bump; versions 3
        // and 4 kept version 2's.
        let text = b"abft-coop artifact store v2";
        assert_eq!(text.len(), 27);
        assert_eq!(FORMAT_VERSION, 4);
        assert_eq!(checksum(text), 0xb470_c350_285a_86eb);
        assert_ne!(checksum(text), checksum_v1(text));
        assert_eq!(checksum(b""), FNV64_OFFSET);
    }

    #[test]
    fn a_version_1_blob_under_a_current_name_is_evicted_and_rebuilt() {
        let store = Arc::new(temp_store("v1"));
        let mut payload = Vec::new();
        encode_trace(&mut payload, &tiny().build_packed());
        // Exactly what version 1 wrote for this artifact.
        let mut blob = Vec::new();
        blob.extend_from_slice(BLOB_MAGIC);
        blob.extend_from_slice(&KIND_TRACE.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&trace_key(tiny()).to_le_bytes());
        blob.extend_from_slice(&payload);
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        blob.extend_from_slice(&checksum_v1(&payload).to_le_bytes());
        blob.extend_from_slice(END_MAGIC);
        std::fs::write(store.trace_path(tiny()), &blob).unwrap();

        let cache = crate::trace_cache::TraceCache::with_store(Arc::clone(&store));
        let rebuilt = cache.get(tiny());
        assert_eq!(cache.builds(), 1, "the old blob must not be served");
        assert_eq!(store.metrics().evictions, 1);
        assert_eq!(store.metrics().writes, 1, "the rebuilt artifact replaces it");
        let loaded = store.load_trace(tiny()).expect("the rewritten blob is current");
        assert!(loaded.words().eq(rebuilt.words()));
    }

    /// `payload` framed as a blob of `kind` at format `version` under
    /// `key`, with the word-wise checksum of versions 2 on.
    fn framed(kind: u32, version: u32, key: u128, payload: &[u8]) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(BLOB_MAGIC);
        blob.extend_from_slice(&kind.to_le_bytes());
        blob.extend_from_slice(&version.to_le_bytes());
        blob.extend_from_slice(&key.to_le_bytes());
        blob.extend_from_slice(payload);
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        blob.extend_from_slice(&checksum(payload).to_le_bytes());
        blob.extend_from_slice(END_MAGIC);
        blob
    }

    // Version 3 wrote `.miss` and `.simpoint` payloads in today's layout,
    // but with a record's gap and a cursor's track in core cycles: read as
    // thread cycles, a four-thread stream would replay at a quarter of its
    // core cycles. Only the version number tells the two apart, which the
    // two tests below show by serving the very bytes under version 4.

    #[test]
    fn a_version_3_miss_blob_under_a_current_name_is_evicted_and_rebuilt() {
        let store = Arc::new(temp_store("v3-miss"));
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        let mut payload = Vec::new();
        encode_miss(&mut payload, &ms);
        let path = store.miss_path(&key);
        std::fs::write(&path, framed(KIND_MISS, 3, miss_key(&key), &payload)).unwrap();

        let cache = crate::trace_cache::TraceCache::with_store(Arc::clone(&store));
        let rebuilt = cache.get_filtered(tiny(), &cfg);
        assert_eq!(cache.miss_builds(), 1, "the old blob must not be served");
        assert_eq!(store.metrics().evictions, 1);
        assert_eq!(store.metrics().writes, 2, "the trace, and the stream that replaces the blob");
        let loaded = store.load_miss(&key).expect("the rewritten blob is current");
        assert!(loaded.iter().eq(rebuilt.iter()));
        std::fs::write(&path, framed(KIND_MISS, FORMAT_VERSION, miss_key(&key), &payload)).unwrap();
        assert!(store.load_miss(&key).is_some(), "the same bytes at version 4 are a stream");
    }

    #[test]
    fn a_version_3_simpoint_blob_under_a_current_name_is_evicted_and_rebuilt() {
        let store = Arc::new(temp_store("v3-simpoint"));
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..Default::default() };
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        let sample = PhaseSample::condense(&ms, Arc::new(SimPointSelection::build(&ms, sp)));
        assert!(sample.selection().phases().iter().any(|p| p.cursor().cycles > 0));
        let mut payload = Vec::new();
        encode_simpoint(&mut payload, sample.selection());
        encode_sample(&mut payload, &sample);
        let (path, digest) = (store.simpoint_path(&key, &sp), simpoint_key(&key, &sp));
        std::fs::write(&path, framed(KIND_SIMPOINT, 3, digest, &payload)).unwrap();

        let cache = crate::trace_cache::TraceCache::with_store(Arc::clone(&store));
        let rebuilt = cache.get_sampled(tiny(), &cfg, &sp);
        assert_eq!(cache.simpoint_builds(), 1, "the old blob must not be served");
        assert_eq!(store.metrics().evictions, 1);
        assert_eq!(store.metrics().writes, 3, "trace, stream, and the selection with its sample");
        assert_eq!(store.load_sample(&key, &sp).expect("the rewritten blob is current"), *rebuilt);
        std::fs::write(&path, framed(KIND_SIMPOINT, FORMAT_VERSION, digest, &payload)).unwrap();
        assert!(store.load_sample(&key, &sp).is_some(), "the same bytes at version 4 are a sample");
    }

    #[test]
    fn a_version_2_simpoint_blob_is_evicted_and_rebuilt_with_its_sample() {
        let store = Arc::new(temp_store("v2"));
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..Default::default() };
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        // Exactly what version 2 wrote: the selection and nothing after.
        let mut payload = Vec::new();
        encode_simpoint(&mut payload, &SimPointSelection::build(&ms, sp));
        let mut blob = framed(KIND_SIMPOINT, 2, simpoint_key(&key, &sp), &payload);
        std::fs::write(store.simpoint_path(&key, &sp), &blob).unwrap();

        let cache = crate::trace_cache::TraceCache::with_store(Arc::clone(&store));
        let rebuilt = cache.get_sampled(tiny(), &cfg, &sp);
        assert_eq!(cache.simpoint_builds(), 1, "the old blob must not be served");
        assert_eq!(store.metrics().evictions, 1);
        assert_eq!(store.metrics().writes, 3, "trace, stream, and the selection with its sample");
        let loaded = store.load_sample(&key, &sp).expect("the rewritten blob is current");
        assert_eq!(loaded, *rebuilt);
        // The same bytes under the current version number are no sample
        // either: the payload ends where the sample should start.
        blob[12..16].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        std::fs::write(store.simpoint_path(&key, &sp), &blob).unwrap();
        assert!(store.load_sample(&key, &sp).is_none());
        assert_eq!(store.metrics().evictions, 2);
    }

    #[test]
    fn a_miss_blob_whose_payload_geometry_differs_from_its_key_is_evicted() {
        let store = temp_store("geometry");
        let (key, _, _, ms, _) = small_artifacts();
        let other = FilterKey { threads: key.threads + 1, ..key };
        assert!(matches!(store.save_miss(&other, &ms), Err(StoreError::KeyMismatch)));
        assert!(!store.miss_path(&other).exists());
        assert_eq!(store.metrics().writes, 0);

        // Well-framed and well-checksummed, under `other`'s digest, with
        // `key`'s geometry inside: a hit would panic at replay.
        store
            .save_blob(&store.miss_path(&other), KIND_MISS, miss_key(&other), |buf| {
                encode_miss(buf, &ms)
            })
            .unwrap();
        assert!(store.load_miss(&other).is_none());
        assert!(!store.miss_path(&other).exists(), "the inconsistent blob is evicted");
        assert_eq!(store.metrics().evictions, 1);
    }

    #[test]
    fn concurrent_writers_of_one_key_never_expose_a_partial_blob() {
        let store = temp_store("race");
        // The framing is what is under test, so the payload is opaque —
        // and large, so that a write is long enough to be caught halfway.
        let payload: Vec<u8> =
            (0..1u32 << 19).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let path = store.root().join("raced.trace");
        let start = std::sync::Barrier::new(3);
        let writers_left = AtomicU64::new(2);
        let loads = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    // Counted as finished even if a save fails, or the
                    // loader below would spin forever.
                    let failed = (0..200).find_map(|_| {
                        let fill =
                            |out: &mut BlobWriter<File>| out.buf().extend_from_slice(&payload);
                        store.save_blob(&path, KIND_TRACE, 7, fill).err()
                    });
                    writers_left.fetch_sub(1, Ordering::SeqCst);
                    assert!(failed.is_none(), "a save failed: {failed:?}");
                });
            }
            let loader = s.spawn(|| {
                start.wait();
                let mut served = 0u64;
                while writers_left.load(Ordering::SeqCst) > 0 {
                    // A load that sees other bytes than were saved counts
                    // as an eviction, like any failed check.
                    let same = |p: &[u8]| (p == payload).then_some(()).ok_or(StoreError::BadKind);
                    served += store.load_blob(&path, KIND_TRACE, 7, same).is_some() as u64;
                }
                served
            });
            loader.join().expect("loader thread")
        });
        let m = store.metrics();
        assert_eq!(m.evictions, 0, "a partial blob was addressable ({loads} loads served)");
        assert_eq!(m.writes, 400);
        let left: Vec<_> =
            std::fs::read_dir(store.root()).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(left, [path], "temp files must not outlive their writes");
    }

    /// A file that takes `left` bytes and then refuses more, as a full disk
    /// does.
    struct FullAfter {
        file: File,
        left: usize,
    }

    impl Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.left {
                return Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full"));
            }
            self.left -= buf.len();
            self.file.write_all(buf).map(|()| buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    #[test]
    fn a_blob_whose_write_fails_mid_stream_leaves_no_temp_file_and_is_counted() {
        let store = temp_store("full");
        let payload: Vec<u8> = (0..5 * BLOB_BUF as u32).map(|i| (i % 251) as u8).collect();
        let path = store.root().join("full.trace");
        // Room for the header and about two buffers: a later flush fails.
        let left = HEADER_BYTES + 2 * BLOB_BUF;
        let mut written = 0;
        let saved = store.save_blob_with(
            &path,
            KIND_TRACE,
            7,
            |tmp| Ok(FullAfter { file: File::create(tmp)?, left }),
            |out| {
                for piece in payload.chunks(1000) {
                    out.buf().extend_from_slice(piece);
                    out.spill();
                    if out.err.is_none() {
                        written = out.len;
                    }
                }
            },
        );
        assert!(matches!(saved, Err(StoreError::Io(_))), "{saved:?}");
        assert!(written >= BLOB_BUF as u64, "the write failed before the stream was under way");
        assert!(written < payload.len() as u64, "the write never failed");
        let left: Vec<_> = std::fs::read_dir(store.root()).unwrap().collect();
        assert!(left.is_empty(), "a failed write left {left:?}");
        let m = store.metrics();
        assert_eq!((m.writes, m.write_failures), (0, 1));

        // The same payload through a writer with room for it is a blob.
        let fill = |out: &mut BlobWriter<File>| out.buf().extend_from_slice(&payload);
        store.save_blob(&path, KIND_TRACE, 7, fill).unwrap();
        let same = |p: &[u8]| (p == payload).then_some(()).ok_or(StoreError::BadKind);
        assert!(store.load_blob(&path, KIND_TRACE, 7, same).is_some());
    }

    #[test]
    fn a_streamed_blob_is_the_blob_framed_whole() {
        // Payload lengths on both sides of a buffer and of a word: the
        // footer's length and checksum are those of the payload whole.
        for len in [0, 5, 8, BLOB_BUF - 3, BLOB_BUF, BLOB_BUF + 13, 3 * BLOB_BUF + 7] {
            let payload: Vec<u8> =
                (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
            let mut blob = BlobWriter::new(Vec::new(), KIND_MISS, 9);
            for piece in payload.chunks(777) {
                blob.buf().extend_from_slice(piece);
                blob.spill();
            }
            let streamed = blob.finish().unwrap();
            assert_eq!(streamed, framed(KIND_MISS, FORMAT_VERSION, 9, &payload), "{len} bytes");
        }
    }

    #[test]
    fn wrong_kind_under_the_right_name_is_rejected() {
        let store = temp_store("kind");
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        store.save_miss(&key, &ms).unwrap();
        // Copy the miss blob over the trace artifact's name: the header
        // kind/key check evicts it rather than decoding garbage.
        std::fs::copy(store.miss_path(&key), store.trace_path(tiny())).unwrap();
        assert!(store.load_trace(tiny()).is_none());
        assert!(!store.trace_path(tiny()).exists());
        assert_eq!(store.metrics().evictions, 1);
    }
}
