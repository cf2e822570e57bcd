//! Versioned binary KG snapshots.
//!
//! A snapshot serializes everything [`KnowledgeGraphBuilder::build`](crate::KnowledgeGraphBuilder::build) spends
//! its time computing — the interned dictionary, the four triple columns and
//! all eight prebuilt pattern indexes with their score-sorted posting lists —
//! into one checksummed file.
//!
//! # Layout (format version 2)
//!
//! All integers are little-endian. Every section starts on an 8-byte
//! boundary and is zero-padded to an 8-byte multiple, and inside the COLS
//! and IDX sections each fixed-stride column is padded so 8-byte-wide
//! columns stay naturally aligned — the file layout is exactly the
//! in-memory layout of the sorted-array index (`PostingMap`
//! columns), so loading is a sequence of bulk column decodes with **no
//! per-entry hashing, insertion or re-sorting**: a page-in-style load
//! rather than a rebuild.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic      8 B   b"SPECQPKG"                                 │
//! │ version    u32   format version (currently 2)                │
//! │ sections   u32   section count                               │
//! │ table      n × (id: u32, reserved: u32, len: u64)            │
//! │                  — len is the unpadded body length; bodies   │
//! │                  are stored back to back, each zero-padded   │
//! │                  to the next 8-byte boundary                 │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section 1  DICT  term count, then (len: u32, utf-8 bytes)    │
//! │ section 2  COLS  row count n, then s[n] p[n] o[n] (u32,      │
//! │                  padded to 8) and score[n] (f64 bits)        │
//! │ section 3  IDX   spo key/val columns, sp/so/po and s/p/o     │
//! │                  key/start/len columns, postings arena,      │
//! │                  global score-sorted list — all fixed-stride │
//! ├──────────────────────────────────────────────────────────────┤
//! │ checksum   u64   8-lane word-wise FNV-1a (fnv1a_64_lanes)    │
//! │                  over every preceding byte                   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! # Version policy
//!
//! [`FORMAT_VERSION`] is the version written; readers accept every version
//! in `1..=FORMAT_VERSION` and reject newer files with
//! [`SnapshotError::UnsupportedVersion`]. Version 1 (12-byte table
//! entries, unaligned sections, per-entry index encoding) is still read in
//! full: its index entries were written key-sorted, so the v1 decoder fills
//! the same sorted-array representation sequentially. [`write_snapshot_v1`]
//! keeps the v1 writer available for compatibility tests and load
//! benchmarks. Unknown trailing sections are skipped on read, so additive
//! extensions do not need a version bump; any change to an existing
//! section's encoding does.
//!
//! **Each version owns its checksum.** The trailer function is part of the
//! format version, not a negotiable field: v1 trailers verify with the
//! single-chain [`fnv1a_64_words`], v2 trailers with the 8-lane
//! [`fnv1a_64_lanes`] (on multi-megabyte images the single chain is bound
//! by multiply latency and would dominate the page-in-style load). A future
//! v3 that wants a different checksum bumps the version rather than adding
//! a "checksum kind" byte — old readers then reject the file up front with
//! a version error instead of a misleading checksum mismatch, and the
//! reader's dispatch stays a single `version >= N` branch with no
//! attacker-controllable algorithm choice in the file itself.
//!
//! # Live graphs
//!
//! Snapshots always describe a **flat** graph. Writing a graph that carries
//! a delta overlay (see [`crate::live`]) first folds the overlay into a
//! fresh base via [`KnowledgeGraph::flattened`] — the file format has no
//! notion of masks or delta segments, which keeps every reader version
//! oblivious to the write path.
//!
//! # Reading
//!
//! [`read_snapshot`] (a byte slice) and [`load_snapshot`] (a file) run one
//! streaming decoder for every version. It pulls the input through a fixed
//! buffer of about 1 MB and decodes each section straight into its
//! destination columns, so a load never holds a whole-file image. The
//! trailer checksum is folded in as the bytes stream past and compared at
//! the end. The checks run in this order:
//!
//! 1. **Framing**, before any section is decoded: the magic, the version,
//!    and a section table that accounts for exactly the input's length.
//! 2. **Each section on its own**, as it streams: counts against the bytes
//!    the section still holds (before anything is allocated), UTF-8 and
//!    distinct dictionary terms, score validity, strictly ascending keys,
//!    posting ranges inside the arena, no trailing bytes.
//! 3. **The checksum.** When step 2 fails, the reader still drains and
//!    hashes the rest of the input: a checksum mismatch outranks the
//!    structural error, since damaged bytes explain it.
//! 4. **Across sections**, once all are in: term ids against the
//!    dictionary, posting entries against the triple count, required
//!    sections present. Sections may therefore appear in any order.
//!
//! Every corruption mode maps to a typed [`SnapshotError`] — truncation,
//! foreign files, version skew, checksum mismatch and structural
//! inconsistencies all return errors, never panic.
//!
//! # Writing
//!
//! [`save_snapshot`] writes a temporary sibling file, syncs it and renames
//! it over the target, so a crash mid-write never destroys the previous
//! snapshot.

use crate::columns::TripleColumns;
use crate::index::{PatternIndexes, PostingMap, PostingRange, TripleMap};
use crate::store::KnowledgeGraph;
use specqp_common::{
    fnv1a_64_lanes, fnv1a_64_words, Dictionary, Fnv64Stream, Result, Score, SnapshotError, TermId,
};
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SPECQPKG";
/// Highest snapshot format version this build reads and the version it
/// writes.
pub const FORMAT_VERSION: u32 = 2;

const SECTION_DICT: u32 = 1;
const SECTION_COLS: u32 = 2;
const SECTION_IDX: u32 = 3;

/// Rounds `n` up to the next multiple of 8.
#[inline]
fn pad8_len(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Zero-pads `buf` to the next 8-byte boundary (section bodies start
/// 8-aligned in the file, so buffer-local alignment is file alignment).
fn pad8(buf: &mut Vec<u8>) {
    buf.resize(pad8_len(buf.len()), 0);
}

fn encode_dict(dict: &Dictionary) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, dict.len() as u64);
    for (_, name) in dict.iter() {
        put_u32(&mut buf, name.len() as u32);
        buf.extend_from_slice(name.as_bytes());
    }
    buf
}

fn encode_cols(cols: &TripleColumns, align: bool) -> Vec<u8> {
    let n = cols.len();
    let mut buf = Vec::with_capacity(8 + n * 20 + 8);
    put_u64(&mut buf, n as u64);
    for &t in cols.subjects() {
        put_u32(&mut buf, t.0);
    }
    for &t in cols.predicates() {
        put_u32(&mut buf, t.0);
    }
    for &t in cols.objects() {
        put_u32(&mut buf, t.0);
    }
    if align {
        // Keep the f64-bits column 8-aligned behind the three u32 columns.
        pad8(&mut buf);
    }
    for &s in cols.scores() {
        put_u64(&mut buf, s.value().to_bits());
    }
    buf
}

/// Version-2 index section: every map is written as its flat key / start /
/// len columns (keys strictly ascending by construction), then the shared
/// postings arena and the global list. Fixed strides throughout; 8-byte
/// columns are kept aligned with explicit padding.
fn encode_idx(idx: &PatternIndexes) -> Vec<u8> {
    let mut buf = Vec::new();

    put_u64(&mut buf, idx.spo.len() as u64);
    for &k in &idx.spo.keys {
        put_u128(&mut buf, k);
    }
    for &v in &idx.spo.vals {
        put_u32(&mut buf, v);
    }
    pad8(&mut buf);

    let mut pair = |map: &PostingMap<u64>| {
        put_u64(&mut buf, map.len() as u64);
        for &k in &map.keys {
            put_u64(&mut buf, k);
        }
        for &s in &map.starts {
            put_u64(&mut buf, s);
        }
        for &l in &map.lens {
            put_u32(&mut buf, l);
        }
        pad8(&mut buf);
    };
    pair(&idx.sp);
    pair(&idx.so);
    pair(&idx.po);

    let mut single = |map: &PostingMap<TermId>| {
        put_u64(&mut buf, map.len() as u64);
        for &k in &map.keys {
            put_u32(&mut buf, k.0);
        }
        pad8(&mut buf);
        for &s in &map.starts {
            put_u64(&mut buf, s);
        }
        for &l in &map.lens {
            put_u32(&mut buf, l);
        }
        pad8(&mut buf);
    };
    single(&idx.s);
    single(&idx.p);
    single(&idx.o);

    put_u64(&mut buf, idx.postings.len() as u64);
    for &i in &idx.postings {
        put_u32(&mut buf, i);
    }
    pad8(&mut buf);

    put_u64(&mut buf, idx.all.len() as u64);
    for &i in &idx.all {
        put_u32(&mut buf, i);
    }
    buf
}

/// Version-1 index section: map entries with inline posting lists, written
/// key-sorted. Kept for compatibility tests and v1-vs-v2 load benchmarks.
fn encode_idx_v1(idx: &PatternIndexes) -> Vec<u8> {
    let mut buf = Vec::new();

    put_u64(&mut buf, idx.spo.len() as u64);
    for (&k, &i) in idx.spo.keys.iter().zip(&idx.spo.vals) {
        put_u32(&mut buf, (k >> 64) as u32);
        put_u32(&mut buf, (k >> 32) as u32);
        put_u32(&mut buf, k as u32);
        put_u32(&mut buf, i);
    }

    let mut pair = |map: &PostingMap<u64>| {
        put_u64(&mut buf, map.len() as u64);
        for ((&key, &start), &len) in map.keys.iter().zip(&map.starts).zip(&map.lens) {
            put_u64(&mut buf, key);
            put_u32(&mut buf, len);
            for &i in idx.list(PostingRange { start, len }) {
                put_u32(&mut buf, i);
            }
        }
    };
    pair(&idx.sp);
    pair(&idx.so);
    pair(&idx.po);

    let mut single = |map: &PostingMap<TermId>| {
        put_u64(&mut buf, map.len() as u64);
        for ((&key, &start), &len) in map.keys.iter().zip(&map.starts).zip(&map.lens) {
            put_u32(&mut buf, key.0);
            put_u32(&mut buf, len);
            for &i in idx.list(PostingRange { start, len }) {
                put_u32(&mut buf, i);
            }
        }
    };
    single(&idx.s);
    single(&idx.p);
    single(&idx.o);

    put_u64(&mut buf, idx.all.len() as u64);
    for &i in &idx.all {
        put_u32(&mut buf, i);
    }
    buf
}

/// Serializes `graph` into an in-memory snapshot image (format version 2).
///
/// A graph carrying a live-write overlay is flattened first (snapshots are
/// always flat; see the module docs), so the image round-trips to the same
/// visible triples under a compacted id space.
pub fn write_snapshot(graph: &KnowledgeGraph) -> Vec<u8> {
    if graph.has_overlay() {
        return write_snapshot(&graph.flattened());
    }
    let sections = [
        (SECTION_DICT, encode_dict(&graph.dict)),
        (SECTION_COLS, encode_cols(&graph.cols, true)),
        (SECTION_IDX, encode_idx(&graph.indexes)),
    ];
    let payload_len: usize = sections.iter().map(|(_, b)| pad8_len(b.len())).sum();
    let mut out = Vec::with_capacity(16 + sections.len() * 16 + payload_len + 8);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, sections.len() as u32);
    for (id, body) in &sections {
        put_u32(&mut out, *id);
        put_u32(&mut out, 0); // reserved — keeps table entries 16 B / 8-aligned
        put_u64(&mut out, body.len() as u64);
    }
    for (_, body) in &sections {
        out.extend_from_slice(body);
        pad8(&mut out);
    }
    // The v2 trailer uses the 8-lane word FNV: on the multi-megabyte images
    // this section layout targets, the single-chain variant is bound by
    // multiply latency and would dominate the whole page-in-style load.
    let checksum = fnv1a_64_lanes(&out);
    put_u64(&mut out, checksum);
    out
}

/// Serializes `graph` into a **format version 1** snapshot image (12-byte
/// table entries, unaligned back-to-back sections, per-entry index
/// encoding). Current readers accept it; kept so compatibility tests and
/// the bench probe can exercise the v1 decode path against real bytes.
/// Overlay graphs are flattened first, like [`write_snapshot`].
pub fn write_snapshot_v1(graph: &KnowledgeGraph) -> Vec<u8> {
    if graph.has_overlay() {
        return write_snapshot_v1(&graph.flattened());
    }
    let sections = [
        (SECTION_DICT, encode_dict(&graph.dict)),
        (SECTION_COLS, encode_cols(&graph.cols, false)),
        (SECTION_IDX, encode_idx_v1(&graph.indexes)),
    ];
    let payload_len: usize = sections.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(16 + sections.len() * 12 + payload_len + 8);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, 1);
    put_u32(&mut out, sections.len() as u32);
    for (id, body) in &sections {
        put_u32(&mut out, *id);
        put_u64(&mut out, body.len() as u64);
    }
    for (_, body) in &sections {
        out.extend_from_slice(body);
    }
    let checksum = fnv1a_64_words(&out);
    put_u64(&mut out, checksum);
    out
}

/// Serializes `graph` to a snapshot file at `path`, crash-safely.
///
/// The image goes to a temporary sibling of `path` first, is synced to
/// disk, and is then renamed over `path`; the parent directory is synced
/// last so the rename itself is durable. A crash or a full disk mid-write
/// therefore leaves the previous file at `path` intact (a crash may leave
/// the temporary file behind). Every failure is a [`SnapshotError::Io`].
pub fn save_snapshot(graph: &KnowledgeGraph, path: impl AsRef<Path>) -> Result<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let io = |what: &str, at: &Path, e: std::io::Error| {
        specqp_common::Error::from(SnapshotError::Io(format!("{what} {}: {e}", at.display())))
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io("saving", path, ErrorKind::InvalidInput.into()))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);

    let bytes = write_snapshot(graph);
    let moved = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(&bytes)?;
            f.sync_all()
        })
        .map_err(|e| io("writing", &tmp, e))
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| io("renaming onto", path, e)));
    if moved.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    moved?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| io("syncing", parent, e))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bytes the reader buffers at a time.
const BUF_LEN: usize = 1 << 20;

/// The trailer function of one format version (v1: single-chain words,
/// v2: eight lanes), folded incrementally as the reader streams.
#[derive(Debug)]
enum Checksum {
    Words(Fnv64Stream<1>),
    Lanes(Fnv64Stream<8>),
}

impl Checksum {
    fn for_version(version: u32) -> Self {
        if version >= 2 {
            Checksum::Lanes(Fnv64Stream::new())
        } else {
            Checksum::Words(Fnv64Stream::new())
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        match self {
            Checksum::Words(h) => h.update(bytes),
            Checksum::Lanes(h) => h.update(bytes),
        }
    }

    fn finish(&self) -> u64 {
        match self {
            Checksum::Words(h) => h.finish(),
            Checksum::Lanes(h) => h.finish(),
        }
    }
}

/// Streaming little-endian reader over one snapshot.
///
/// Pulls the input through a fixed buffer, folds every byte in front of the
/// trailer into the version's checksum as it arrives, and bounds every read
/// by the current section, so a count is checked against the bytes its
/// section really holds before anything is allocated for it.
struct Cursor<R> {
    src: R,
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[pos..end]`.
    pos: usize,
    end: usize,
    /// Bytes pulled from `src` so far.
    read: u64,
    /// Input length the framing was checked against.
    len: u64,
    sum: Checksum,
    /// Input offsets bounding the current section.
    section_start: u64,
    section_end: u64,
    context: &'static str,
}

impl<R: Read> Cursor<R> {
    /// A cursor over `src` positioned after the 16-byte `header` it already
    /// consumed; `len` (at least 16) is the whole input's length.
    fn new(src: R, len: u64, buf_len: usize, header: &[u8; 16], version: u32) -> Self {
        let mut sum = Checksum::for_version(version);
        sum.update(header);
        let buf_len = usize::try_from(len)
            .map_or(buf_len, |l| l.min(buf_len))
            .max(16);
        Cursor {
            src,
            buf: vec![0; buf_len],
            pos: 0,
            end: 0,
            read: 16,
            len,
            sum,
            section_start: 16,
            section_end: 16,
            context: "header",
        }
    }

    /// Input offset of the next unconsumed byte.
    fn offset(&self) -> u64 {
        self.read - (self.end - self.pos) as u64
    }

    /// Starts a section of `len` bytes at the current offset.
    fn section(&mut self, len: u64, context: &'static str) {
        self.section_start = self.offset();
        self.section_end = self.section_start + len;
        self.context = context;
    }

    /// Bytes left in the current section.
    fn left(&self) -> u64 {
        self.section_end - self.offset()
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            context: self.context.to_string(),
        }
    }

    fn corrupt(&self, what: &str) -> SnapshotError {
        SnapshotError::Corrupt(format!("{}: {what}", self.context))
    }

    /// Fails unless `n` more bytes lie inside the current section.
    fn room(&self, n: usize) -> Result<(), SnapshotError> {
        if n as u64 > self.left() {
            return Err(self.truncated());
        }
        Ok(())
    }

    /// Makes at least `need` (at most the buffer's length) unconsumed bytes
    /// available, hashing what it reads up to the trailer.
    fn fill(&mut self, need: usize) -> Result<(), SnapshotError> {
        if self.end - self.pos >= need {
            return Ok(());
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        let body_end = self.len - 8;
        while self.end < need {
            let want = ((self.buf.len() - self.end) as u64).min(self.len - self.read) as usize;
            if want == 0 {
                return Err(self.truncated());
            }
            let n = match self.src.read(&mut self.buf[self.end..self.end + want]) {
                Ok(0) => return Err(self.truncated()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(SnapshotError::Io(e.to_string())),
            };
            let hashed = body_end.saturating_sub(self.read).min(n as u64) as usize;
            self.sum.update(&self.buf[self.end..self.end + hashed]);
            self.end += n;
            self.read += n as u64;
        }
        Ok(())
    }

    /// Hands the next `n` values of `W` bytes each to `f`, as many whole
    /// values at a time as the buffer holds.
    fn chunks<const W: usize>(
        &mut self,
        n: usize,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), SnapshotError> {
        self.room(n.checked_mul(W).ok_or_else(|| self.truncated())?)?;
        let mut left = n;
        while left > 0 {
            self.fill(W)?;
            let k = ((self.end - self.pos) / W).min(left);
            f(&self.buf[self.pos..self.pos + k * W]);
            self.pos += k * W;
            left -= k;
        }
        Ok(())
    }

    /// Decodes `n` little-endian values of `W` bytes each, appending to
    /// `out` — the bulk path for columns and posting lists.
    fn extend<T, const W: usize>(
        &mut self,
        n: usize,
        out: &mut Vec<T>,
        mut decode: impl FnMut([u8; W]) -> T,
    ) -> Result<(), SnapshotError> {
        self.room(n.checked_mul(W).ok_or_else(|| self.truncated())?)?;
        out.reserve(n);
        self.chunks::<W>(n, |raw| {
            out.extend(
                raw.chunks_exact(W)
                    .map(|c| decode(c.try_into().expect("chunks_exact yields W bytes"))),
            );
        })
    }

    /// [`extend`](Self::extend) into a fresh vector.
    fn vec<T, const W: usize>(
        &mut self,
        n: usize,
        decode: impl FnMut([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let mut v = Vec::new();
        self.extend(n, &mut v, decode)?;
        Ok(v)
    }

    fn array<const W: usize>(&mut self) -> Result<[u8; W], SnapshotError> {
        self.room(W)?;
        self.fill(W)?;
        let a = self.buf[self.pos..self.pos + W]
            .try_into()
            .expect("fill made W bytes available");
        self.pos += W;
        Ok(a)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consumes `n` bytes of the current section unread.
    fn skip(&mut self, n: u64) -> Result<(), SnapshotError> {
        let n = usize::try_from(n).map_err(|_| self.truncated())?;
        self.chunks::<1>(n, |_| {})
    }

    /// Skips to the next 8-byte boundary of the section (v2 sections keep
    /// 8-byte-wide columns aligned with zero padding).
    fn align8(&mut self) -> Result<(), SnapshotError> {
        let at = self.offset() - self.section_start;
        self.skip(at.next_multiple_of(8) - at)
    }

    /// A count field, validated against what the rest of the section could
    /// possibly hold (each counted element occupies >= `min_elem_bytes`),
    /// so corrupt counts fail fast instead of attempting huge allocations.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n.saturating_mul(min_elem_bytes as u64) > self.left() {
            return Err(self.corrupt(&format!("count {n} exceeds section capacity")));
        }
        usize::try_from(n).map_err(|_| self.corrupt(&format!("count {n} overflows")))
    }

    /// Fails when bytes of the current section are left unread.
    fn done(&self, after: &str) -> Result<(), SnapshotError> {
        if self.left() != 0 {
            return Err(self.corrupt(&format!("trailing bytes after {after}")));
        }
        Ok(())
    }

    /// Consumes the rest of the payload and checks the trailer against
    /// every byte hashed on the way.
    fn trailer(&mut self) -> Result<(), SnapshotError> {
        self.section(self.len - 8 - self.offset(), "payload");
        self.skip(self.left())?;
        self.section(8, "checksum");
        let expected = self.u64()?;
        let actual = self.sum.finish();
        if expected != actual {
            return Err(SnapshotError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }
}

/// Reads `buf` from the head of `src`, mapping a short input to
/// [`SnapshotError::Truncated`].
fn read_head(src: &mut impl Read, buf: &mut [u8], context: &str) -> Result<(), SnapshotError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => SnapshotError::Truncated {
            context: context.to_string(),
        },
        _ => SnapshotError::Io(e.to_string()),
    })
}

fn decode_dict<R: Read>(c: &mut Cursor<R>) -> Result<Dictionary, SnapshotError> {
    let n = c.count(4)?;
    // Names go straight into one arena; the dictionary takes it over whole.
    let mut arena = Vec::with_capacity((c.left() - 4 * n as u64) as usize);
    let mut ends = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.u32()? as usize;
        c.chunks::<1>(len, |raw| arena.extend_from_slice(raw))?;
        ends.push(arena.len());
    }
    c.done("last term")?;
    let arena = String::from_utf8(arena)
        .map_err(|e| SnapshotError::Corrupt(format!("dictionary term not utf-8: {e}")))?;
    Dictionary::from_arena(arena, ends).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

fn decode_cols<R: Read>(c: &mut Cursor<R>, aligned: bool) -> Result<TripleColumns, SnapshotError> {
    let n = c.count(20)?;
    let s = c.vec(n, term_id)?;
    let p = c.vec(n, term_id)?;
    let o = c.vec(n, term_id)?;
    if aligned {
        c.align8()?;
    }
    let mut bad = None;
    let score = c.vec(n, |raw| {
        let v = f64::from_bits(u64::from_le_bytes(raw));
        // Same invariant the TSV reader enforces: finite and non-negative.
        if v.is_finite() && v >= 0.0 {
            Score::new(v)
        } else {
            bad.get_or_insert(v);
            Score::ZERO
        }
    })?;
    if let Some(v) = bad {
        return Err(SnapshotError::Corrupt(format!(
            "invalid score {v} in score column (must be finite and non-negative)"
        )));
    }
    c.done("score column")?;
    TripleColumns::from_parts(s, p, o, score)
        .ok_or_else(|| SnapshotError::Corrupt("triple columns have unequal lengths".into()))
}

/// Every (start, len) range must lie inside the postings arena.
fn check_ranges(starts: &[u64], lens: &[u32], arena_len: usize) -> Result<(), SnapshotError> {
    for (&start, &len) in starts.iter().zip(lens) {
        let end = start.checked_add(u64::from(len));
        if end.is_none_or(|e| e > arena_len as u64) {
            return Err(SnapshotError::Corrupt(format!(
                "posting range {start}+{len} exceeds arena (len {arena_len})"
            )));
        }
    }
    Ok(())
}

fn unsorted(what: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("{what} keys not strictly ascending"))
}

fn term_id(raw: [u8; 4]) -> TermId {
    TermId(u32::from_le_bytes(raw))
}

/// Version-2 index decode: bulk column decodes straight into the
/// sorted-array maps. The only per-entry work left is validation (key
/// order, range bounds) — no hashing, no inserts.
fn decode_idx<R: Read>(c: &mut Cursor<R>) -> Result<PatternIndexes, SnapshotError> {
    let spo_count = c.count(20)?;
    let spo_keys = c.vec(spo_count, u128::from_le_bytes)?;
    let spo_vals = c.vec(spo_count, u32::from_le_bytes)?;
    c.align8()?;
    let spo = TripleMap::from_columns(spo_keys, spo_vals).ok_or_else(|| unsorted("spo"))?;

    let pair = |c: &mut Cursor<R>| -> Result<PostingMap<u64>, SnapshotError> {
        let count = c.count(20)?;
        let keys = c.vec(count, u64::from_le_bytes)?;
        let starts = c.vec(count, u64::from_le_bytes)?;
        let lens = c.vec(count, u32::from_le_bytes)?;
        c.align8()?;
        PostingMap::from_columns(keys, starts, lens).ok_or_else(|| unsorted("pair-map"))
    };
    let sp = pair(c)?;
    let so = pair(c)?;
    let po = pair(c)?;

    let single = |c: &mut Cursor<R>| -> Result<PostingMap<TermId>, SnapshotError> {
        let count = c.count(16)?;
        let keys = c.vec(count, term_id)?;
        c.align8()?;
        let starts = c.vec(count, u64::from_le_bytes)?;
        let lens = c.vec(count, u32::from_le_bytes)?;
        c.align8()?;
        PostingMap::from_columns(keys, starts, lens).ok_or_else(|| unsorted("single-map"))
    };
    let s = single(c)?;
    let p = single(c)?;
    let o = single(c)?;

    let arena_len = c.count(4)?;
    let postings = c.vec(arena_len, u32::from_le_bytes)?;
    c.align8()?;
    for m in [&sp, &so, &po] {
        check_ranges(&m.starts, &m.lens, postings.len())?;
    }
    for m in [&s, &p, &o] {
        check_ranges(&m.starts, &m.lens, postings.len())?;
    }

    let all_count = c.count(4)?;
    let all = c.vec(all_count, u32::from_le_bytes)?;
    c.done("global list")?;
    Ok(PatternIndexes {
        spo,
        sp,
        so,
        po,
        s,
        p,
        o,
        postings,
        all,
    })
}

/// Version-1 index decode: per-entry map records with inline posting lists.
/// V1 writers emitted entries key-sorted, so this fills the sorted-array
/// representation sequentially (posting lists concatenate into the shared
/// arena in file order — still no hashing on the load path).
fn decode_idx_v1<R: Read>(c: &mut Cursor<R>) -> Result<PatternIndexes, SnapshotError> {
    let spo_count = c.count(16)?;
    let mut spo = TripleMap::default();
    let spo_raw = c.vec(spo_count * 4, u32::from_le_bytes)?;
    for e in spo_raw.chunks_exact(4) {
        let key = (u128::from(e[0]) << 64) | (u128::from(e[1]) << 32) | u128::from(e[2]);
        if spo.keys.last().is_some_and(|&last| key <= last) {
            return Err(unsorted("spo"));
        }
        spo.keys.push(key);
        spo.vals.push(e[3]);
    }

    // Posting lists take at least 4 bytes per entry of what is left.
    let mut arena: Vec<u32> = Vec::with_capacity((c.left() / 4) as usize);
    let pair = |c: &mut Cursor<R>, arena: &mut Vec<u32>| {
        let count = c.count(12)?;
        let mut map = PostingMap::default();
        for _ in 0..count {
            let key = c.u64()?;
            let len = c.u32()?;
            let start = arena.len() as u64;
            c.extend(len as usize, arena, u32::from_le_bytes)?;
            if map.keys.last().is_some_and(|&last| key <= last) {
                return Err(unsorted("pair-map"));
            }
            map.keys.push(key);
            map.starts.push(start);
            map.lens.push(len);
        }
        Ok::<PostingMap<u64>, SnapshotError>(map)
    };
    let sp = pair(c, &mut arena)?;
    let so = pair(c, &mut arena)?;
    let po = pair(c, &mut arena)?;

    let single = |c: &mut Cursor<R>, arena: &mut Vec<u32>| {
        let count = c.count(8)?;
        let mut map = PostingMap::default();
        for _ in 0..count {
            let key = TermId(c.u32()?);
            let len = c.u32()?;
            let start = arena.len() as u64;
            c.extend(len as usize, arena, u32::from_le_bytes)?;
            if map.keys.last().is_some_and(|&last| key <= last) {
                return Err(unsorted("single-map"));
            }
            map.keys.push(key);
            map.starts.push(start);
            map.lens.push(len);
        }
        Ok::<PostingMap<TermId>, SnapshotError>(map)
    };
    let s = single(c, &mut arena)?;
    let p = single(c, &mut arena)?;
    let o = single(c, &mut arena)?;

    let all_count = c.count(4)?;
    let all = c.vec(all_count, u32::from_le_bytes)?;
    c.done("global list")?;
    Ok(PatternIndexes {
        spo,
        sp,
        so,
        po,
        s,
        p,
        o,
        postings: arena,
        all,
    })
}

/// The decoded sections, before the cross-section checks. A section listed
/// twice keeps its last copy.
#[derive(Default)]
struct Sections {
    dict: Option<Dictionary>,
    cols: Option<TripleColumns>,
    idx: Option<PatternIndexes>,
}

/// Decodes every section in table order (`(id, len, stored len)` entries).
/// Each section is checked on its own here; checks between sections wait
/// until all are in.
fn decode_sections<R: Read>(
    c: &mut Cursor<R>,
    table: &[(u32, u64, u64)],
    version: u32,
    out: &mut Sections,
) -> Result<(), SnapshotError> {
    for &(id, len, stored) in table {
        match id {
            SECTION_DICT => {
                c.section(len, "dictionary");
                out.dict = Some(decode_dict(c)?);
            }
            SECTION_COLS => {
                c.section(len, "triple columns");
                out.cols = Some(decode_cols(c, version >= 2)?);
            }
            SECTION_IDX => {
                c.section(len, "pattern indexes");
                out.idx = Some(if version >= 2 {
                    decode_idx(c)?
                } else {
                    decode_idx_v1(c)?
                });
            }
            // Unknown sections are additive extensions — skip them.
            _ => {
                c.section(len, "unknown section");
                c.skip(len)?;
            }
        }
        c.section(stored - len, "section padding");
        c.skip(stored - len)?;
    }
    Ok(())
}

/// The one snapshot decoder behind [`read_snapshot`] and [`load_snapshot`]:
/// `src` yields the `len` input bytes, read through a buffer of at most
/// `buf_len` bytes.
fn decode<R: Read>(mut src: R, len: u64, buf_len: usize) -> Result<KnowledgeGraph, SnapshotError> {
    let truncated = |context: &str| SnapshotError::Truncated {
        context: context.to_string(),
    };
    let mut header = [0u8; 16];
    if len < 8 {
        return Err(truncated("magic"));
    }
    read_head(&mut src, &mut header[..8], "magic")?;
    if header[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if len < 16 {
        return Err(truncated("header"));
    }
    read_head(&mut src, &mut header[8..], "header")?;
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let version = word(8);
    if version == 0 || version > FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let section_count = word(12);
    // v1: 12-byte table entries, bodies packed back to back.
    // v2: 16-byte table entries, bodies zero-padded to 8-byte boundaries.
    let (entry_bytes, aligned) = if version >= 2 {
        (16, true)
    } else {
        (12, false)
    };
    let table_end = 16 + u64::from(section_count) * entry_bytes;
    if len < table_end {
        return Err(truncated("section table"));
    }

    // Framing: the section table must account for every input byte before
    // any section is decoded.
    let mut c = Cursor::new(src, len, buf_len, &header, version);
    c.section(table_end - 16, "section table");
    let overflow = || SnapshotError::Corrupt("section lengths overflow".into());
    let mut table = Vec::with_capacity(section_count as usize);
    let mut payload = 0u64;
    for _ in 0..section_count {
        let id = c.u32()?;
        if aligned {
            c.u32()?; // reserved
        }
        let body = c.u64()?;
        let stored = if aligned {
            body.checked_next_multiple_of(8).ok_or_else(overflow)?
        } else {
            body
        };
        payload = payload.checked_add(stored).ok_or_else(overflow)?;
        table.push((id, body, stored));
    }
    let expected_total = table_end
        .checked_add(payload)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(overflow)?;
    if len < expected_total {
        return Err(truncated("payload"));
    }
    if len > expected_total {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after checksum",
            len - expected_total
        )));
    }

    let mut sections = Sections::default();
    if let Err(e) = decode_sections(&mut c, &table, version, &mut sections) {
        // Damaged bytes explain a structural error, so a failing trailer
        // outranks it: hash the rest and report the mismatch if there is one.
        return Err(match c.trailer() {
            Err(mismatch @ SnapshotError::ChecksumMismatch { .. }) => mismatch,
            _ => e,
        });
    }
    c.trailer()?;

    let missing = |name: &str| SnapshotError::Corrupt(format!("required section {name} missing"));
    let dict = sections.dict.ok_or_else(|| missing("DICT"))?;
    let cols = sections.cols.ok_or_else(|| missing("COLS"))?;
    let indexes = sections.idx.ok_or_else(|| missing("IDX"))?;
    let terms = [cols.subjects(), cols.predicates(), cols.objects()];
    if let Some(id) = terms.iter().filter_map(|col| col.iter().max()).max() {
        if id.index() >= dict.len() {
            return Err(SnapshotError::Corrupt(format!(
                "triple columns reference term {} outside dictionary (len {})",
                id.0,
                dict.len()
            )));
        }
    }
    let postings = [&indexes.spo.vals, &indexes.postings, &indexes.all];
    if let Some(&i) = postings.iter().filter_map(|list| list.iter().max()).max() {
        if i as usize >= cols.len() {
            return Err(SnapshotError::Corrupt(format!(
                "posting references triple {i} outside table (len {})",
                cols.len()
            )));
        }
    }
    if indexes.all.len() != cols.len() {
        return Err(SnapshotError::Corrupt(format!(
            "global list has {} entries for {} triples",
            indexes.all.len(),
            cols.len()
        )));
    }
    Ok(KnowledgeGraph::from_parts(dict, cols, indexes))
}

/// Deserializes a snapshot image produced by [`write_snapshot`] (or a
/// version-1 image produced by an older build / [`write_snapshot_v1`]).
///
/// Runs the same streaming decoder as [`load_snapshot`]; see the module
/// docs under *Reading* for what is checked when and which error wins.
pub fn read_snapshot(bytes: &[u8]) -> Result<KnowledgeGraph> {
    Ok(decode(bytes, bytes.len() as u64, BUF_LEN)?)
}

/// Loads a knowledge graph from a snapshot file at `path`, streaming it
/// through a fixed buffer: no whole-file image is held in memory.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<KnowledgeGraph> {
    let path = path.as_ref();
    let io =
        |e: &dyn std::fmt::Display| SnapshotError::Io(format!("reading {}: {e}", path.display()));
    let file = File::open(path).map_err(|e| io(&e))?;
    let len = file.metadata().map_err(|e| io(&e))?.len();
    decode(file, len, BUF_LEN).map_err(|e| match e {
        SnapshotError::Io(msg) => io(&msg).into(),
        e => e.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KnowledgeGraphBuilder, PatternKey};
    use specqp_common::Error;

    fn sample() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 10.0);
        b.add("b", "type", "singer", 4.0);
        b.add("c", "type", "singer", 2.0);
        b.add("a", "type", "lyricist", 7.0);
        b.add("a", "plays", "guitar", 3.0);
        b.intern("ghost"); // interned term with no triples must survive
        b.build()
    }

    fn snapshot_err(r: Result<KnowledgeGraph>) -> SnapshotError {
        match r {
            Err(Error::Snapshot(e)) => e,
            Err(other) => panic!("expected snapshot error, got {other:?}"),
            Ok(_) => panic!("expected error, got a graph"),
        }
    }

    fn assert_graphs_answer_identically(g: &KnowledgeGraph, g2: &KnowledgeGraph) {
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.dictionary().len(), g.dictionary().len());
        // Ids are identical, not merely isomorphic.
        for (id, name) in g.dictionary().iter() {
            assert_eq!(g2.dictionary().lookup(name), Some(id));
        }
        // Every signature answers identically.
        let d = g.dictionary();
        let (a, ty, singer) = (
            d.lookup("a").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("singer").unwrap(),
        );
        for key in [
            PatternKey::spo(a, ty, singer),
            PatternKey::sp(a, ty),
            PatternKey::so(a, singer),
            PatternKey::po(ty, singer),
            PatternKey::s_only(a),
            PatternKey::p_only(ty),
            PatternKey::o_only(singer),
            PatternKey::any(),
        ] {
            let m1 = g.matches(key);
            let m2 = g2.matches(key);
            assert_eq!(m1.len(), m2.len(), "{key:?}");
            for r in 0..m1.len() {
                assert_eq!(m1.id_at(r), m2.id_at(r), "{key:?} rank {r}");
                assert_eq!(m1.score_at(r), m2.score_at(r), "{key:?} rank {r}");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let bytes = write_snapshot(&g);
        let g2 = read_snapshot(&bytes).unwrap();
        assert_graphs_answer_identically(&g, &g2);
        assert_eq!(
            g2.dictionary().lookup("ghost"),
            g.dictionary().lookup("ghost")
        );
    }

    #[test]
    fn v1_image_reads_back_identically() {
        let g = sample();
        let bytes = write_snapshot_v1(&g);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        let g2 = read_snapshot(&bytes).unwrap();
        assert_graphs_answer_identically(&g, &g2);
    }

    #[test]
    fn v2_sections_are_8_byte_aligned() {
        let bytes = write_snapshot(&sample());
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 16 + count * 16;
        assert_eq!(table_end % 8, 0);
        let mut offset = table_end;
        for i in 0..count {
            assert_eq!(offset % 8, 0, "section {i} starts unaligned");
            let len_at = 16 + i * 16 + 8;
            let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
            offset += pad8_len(len);
        }
        assert_eq!(offset + 8, bytes.len());
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let g = sample();
        assert_eq!(write_snapshot(&g), write_snapshot(&g));
        assert_eq!(write_snapshot_v1(&g), write_snapshot_v1(&g));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = KnowledgeGraphBuilder::new().build();
        let g2 = read_snapshot(&write_snapshot(&g)).unwrap();
        assert!(g2.is_empty());
        assert!(g2.matches(PatternKey::any()).is_empty());
        let g3 = read_snapshot(&write_snapshot_v1(&g)).unwrap();
        assert!(g3.is_empty());
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let bytes = write_snapshot(&sample());
        // Every proper prefix must fail with Truncated (or a checksum/corrupt
        // error is impossible here because framing is checked first).
        for cut in [0, 4, 8, 12, 15, 20, bytes.len() / 2, bytes.len() - 1] {
            let e = snapshot_err(read_snapshot(&bytes[..cut]));
            if cut >= 8 {
                assert!(
                    matches!(e, SnapshotError::Truncated { .. }),
                    "cut at {cut}: {e:?}"
                );
            } else {
                // Shorter than the magic: either truncated-magic or, for a
                // cut inside the magic, bad magic is also acceptable.
                assert!(
                    matches!(e, SnapshotError::Truncated { .. } | SnapshotError::BadMagic),
                    "cut at {cut}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        bytes[0] = b'X';
        assert_eq!(snapshot_err(read_snapshot(&bytes)), SnapshotError::BadMagic);
        // A TSV file is not a snapshot.
        let e = snapshot_err(read_snapshot(b"alice\trdf:type\tsinger\t12.5\n"));
        assert_eq!(e, SnapshotError::BadMagic);
    }

    #[test]
    fn wrong_version_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let e = snapshot_err(read_snapshot(&bytes));
        assert_eq!(
            e,
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn checksum_mismatch_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        // Flip one payload byte (past header + table, before the trailer).
        let mid = bytes.len() - 16;
        bytes[mid] ^= 0xff;
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::ChecksumMismatch { .. }), "{e:?}");
    }

    #[test]
    fn trailing_garbage_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        bytes.extend_from_slice(b"extraextra");
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn corrupt_count_fails_without_huge_allocation() {
        let g = sample();
        let bytes = write_snapshot(&g);
        // The DICT section starts right after the header+table; overwrite its
        // term count with an absurd value and refresh the checksum so the
        // framing passes and the structural check is what fires.
        let table_end = 16 + 3 * 16;
        let mut bytes = bytes;
        bytes[table_end..table_end + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = fnv1a_64_lanes(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn negative_or_infinite_score_in_snapshot_is_corrupt() {
        let g = sample();
        for bad in [-1.0f64, f64::INFINITY, f64::NAN] {
            let mut bytes = write_snapshot(&g);
            // Locate the score column from the section table: COLS follows
            // the padded DICT body; inside COLS the scores follow the count
            // and the three (jointly padded) term columns. Patch the first
            // score and refresh the checksum so the structural check (not
            // the checksum) is what fires.
            let table_end = 16 + 3 * 16;
            let dict_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
            let score_off = table_end + pad8_len(dict_len) + 8 + pad8_len(3 * 4 * g.len());
            bytes[score_off..score_off + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let body_end = bytes.len() - 8;
            let sum = fnv1a_64_lanes(&bytes[..body_end]);
            bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
            let e = snapshot_err(read_snapshot(&bytes));
            assert!(matches!(e, SnapshotError::Corrupt(_)), "{bad}: {e:?}");
        }
    }

    #[test]
    fn ids_outside_dictionary_or_table_are_corrupt() {
        let g = sample();
        let image = write_snapshot(&g);
        let table_end = 16 + 3 * 16;
        let dict_len = u64::from_le_bytes(image[24..32].try_into().unwrap()) as usize;
        let cols_len = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
        let idx_len = u64::from_le_bytes(image[56..64].try_into().unwrap()) as usize;
        let first_subject = table_end + pad8_len(dict_len) + 8;
        let last_global = table_end + pad8_len(dict_len) + pad8_len(cols_len) + idx_len - 4;
        for (at, id) in [
            (first_subject, g.dictionary().len() as u32),
            (last_global, g.len() as u32),
        ] {
            let mut bytes = image.clone();
            bytes[at..at + 4].copy_from_slice(&id.to_le_bytes());
            let body_end = bytes.len() - 8;
            let sum = fnv1a_64_lanes(&bytes[..body_end]);
            bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
            let e = snapshot_err(read_snapshot(&bytes));
            assert!(
                matches!(&e, SnapshotError::Corrupt(m) if m.contains("outside")),
                "id {id} at {at}: {e:?}"
            );
        }
    }

    #[test]
    fn unsorted_v2_keys_are_corrupt() {
        let g = sample();
        let mut bytes = write_snapshot(&g);
        // The IDX section is third: swap the first two spo keys (two u128s
        // right after the count) and refresh the checksum.
        let table_end = 16 + 3 * 16;
        let dict_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let cols_len = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        let idx_off = table_end + pad8_len(dict_len) + pad8_len(cols_len);
        let key_off = idx_off + 8;
        let (a, b) = (key_off, key_off + 16);
        let first: [u8; 16] = bytes[a..a + 16].try_into().unwrap();
        let second: [u8; 16] = bytes[b..b + 16].try_into().unwrap();
        bytes[a..a + 16].copy_from_slice(&second);
        bytes[b..b + 16].copy_from_slice(&first);
        let body_end = bytes.len() - 8;
        let sum = fnv1a_64_lanes(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn save_and_load_via_file() {
        let g = sample();
        let path =
            std::env::temp_dir().join(format!("specqp_snapshot_test_{}.snap", std::process::id()));
        save_snapshot(&g, &path).unwrap();
        let g2 = load_snapshot(&path).unwrap();
        assert_eq!(g2.len(), g.len());
        std::fs::remove_file(&path).ok();
    }

    /// Hands out 1–7 bytes per call and is interrupted every fifth call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 5 == 0 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = (self.calls % 7 + 1).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn trickled_input_loads_like_the_one_shot_path() {
        let g = sample();
        for image in [write_snapshot(&g), write_snapshot_v1(&g)] {
            let one_shot = write_snapshot(&read_snapshot(&image).unwrap());
            // Buffers smaller than a column force values across refills.
            for buf_len in [16, 24, 100, BUF_LEN] {
                let src = Trickle {
                    bytes: &image,
                    calls: 0,
                };
                let g2 = decode(src, image.len() as u64, buf_len).unwrap();
                assert_graphs_answer_identically(&g, &g2);
                assert_eq!(write_snapshot(&g2), one_shot, "buffer {buf_len}");
            }
        }
    }

    #[test]
    fn every_flipped_payload_byte_is_a_checksum_mismatch() {
        let g = sample();
        for (image, entry_bytes) in [(write_snapshot(&g), 16), (write_snapshot_v1(&g), 12)] {
            // Past the header and table, the framing cannot see a flip, so
            // the trailer must: a structural error it causes ranks below.
            let table_end = 16 + 3 * entry_bytes;
            for at in table_end..image.len() - 8 {
                let mut bytes = image.clone();
                bytes[at] ^= 0x5a;
                let e = snapshot_err(read_snapshot(&bytes));
                assert!(
                    matches!(e, SnapshotError::ChecksumMismatch { .. }),
                    "flip at {at}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn sections_in_any_order_load() {
        let g = sample();
        let image = write_snapshot(&g);
        let table_end = 16 + 3 * 16;
        let mut entries = Vec::new();
        let mut offset = table_end;
        for i in 0..3 {
            let entry = &image[16 + i * 16..16 + (i + 1) * 16];
            let len = u64::from_le_bytes(entry[8..].try_into().unwrap()) as usize;
            entries.push((
                entry.to_vec(),
                image[offset..offset + pad8_len(len)].to_vec(),
            ));
            offset += pad8_len(len);
        }
        entries.reverse(); // IDX, COLS, DICT
        let mut bytes = image[..16].to_vec();
        for (entry, _) in &entries {
            bytes.extend_from_slice(entry);
        }
        for (_, body) in &entries {
            bytes.extend_from_slice(body);
        }
        let sum = fnv1a_64_lanes(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let g2 = read_snapshot(&bytes).unwrap();
        assert_graphs_answer_identically(&g, &g2);
    }

    #[test]
    fn saving_over_a_snapshot_replaces_it_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("specqp_save_over_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.snap");
        save_snapshot(&KnowledgeGraphBuilder::new().build(), &path).unwrap();
        let g = sample();
        save_snapshot(&g, &path).unwrap();
        assert_graphs_answer_identically(&g, &load_snapshot(&path).unwrap());
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, vec![std::ffi::OsString::from("graph.snap")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = snapshot_err(load_snapshot("/nonexistent/specqp.snap"));
        assert!(matches!(e, SnapshotError::Io(_)), "{e:?}");
    }
}
