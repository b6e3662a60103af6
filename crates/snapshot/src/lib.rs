//! # exynos-snapshot — versioned binary state snapshots
//!
//! Dependency-free checkpoint/resume encoding for every stateful
//! component of the simulator. The format is deterministic (the same
//! machine state always encodes to the same bytes), little-endian,
//! length-prefixed, and versioned:
//!
//! ```text
//! header:   magic u32 ("EXYS") | format version u16 | meta u16
//! body:     section*
//! section:  tag u16 | payload length u32 | payload (may nest sections)
//! ```
//!
//! The `meta` word carries snapshot-level context (the core crate stores
//! the generation tag there). Every component writes exactly one section
//! under its registered tag from [`tags`]; composite components nest
//! their members' sections inside their own payload. Sequences are
//! `u32` count followed by the elements; optional values are a `u8`
//! presence flag followed by the payload when present.
//!
//! Decoding never panics: every read is bounds-checked against both the
//! buffer and the innermost open section, and malformed input surfaces a
//! typed [`SnapshotError`]. Configuration-derived geometry (table sizes,
//! set counts) is *not* serialized — a component restores into an
//! instance built from the same configuration, and the length checks on
//! its sequences double as geometry validation.
//!
//! Bump [`FORMAT_VERSION`] on any layout change and update the DESIGN.md
//! format table in the same commit (tier1.sh gates on the two agreeing).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

/// Snapshot file magic: `EXYS` read as a little-endian u32.
pub const MAGIC: u32 = 0x5359_5845;

/// Current encoder format version. Decoders accept exactly this version.
pub const FORMAT_VERSION: u16 = 3;

pub mod journal;
pub mod layout;
pub mod sets;

pub use sets::LazySets;

/// FNV-1a, 64-bit, over the concatenation of `chunks`: the journal's
/// frame checksum, the service's configuration key and its checkpoint
/// digest.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in chunks.iter().copied().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The central registry of per-component section tags. Tags are grouped
/// by crate so a hex dump localizes a decode failure to a subsystem.
pub mod tags {
    // ---- crates/branch: 0x10-0x1F ----
    /// Scaled-hashed-perceptron direction predictor.
    pub const SHP: u16 = 0x10;
    /// Global (taken/not-taken) branch history.
    pub const GLOBAL_HISTORY: u16 = 0x11;
    /// Path (target bytes) history.
    pub const PATH_HISTORY: u16 = 0x12;
    /// Main BTB hierarchy (mBTB lines + vBTB + L2 BTB).
    pub const BTB: u16 = 0x13;
    /// Return-address stack (encrypted slots + key).
    pub const RAS: u16 = 0x14;
    /// Micro-BTB with the loop lock.
    pub const UBTB: u16 = 0x15;
    /// Indirect-target predictor.
    pub const INDIRECT: u16 = 0x16;
    /// Mispredict-recovery buffer.
    pub const MRB: u16 = 0x17;
    /// Branch-confidence table.
    pub const CONFIDENCE: u16 = 0x18;
    /// Composed front end (members + fetch-stream state).
    pub const FRONTEND: u16 = 0x19;
    // ---- crates/secure: 0x20-0x2F ----
    /// Context-hash cipher key.
    pub const CONTEXT_HASH: u16 = 0x20;
    /// Entropy-source pools behind CONTEXT_HASH.
    pub const ENTROPY: u16 = 0x21;
    // ---- crates/uoc: 0x30-0x3F ----
    /// Micro-op cache and its mode machine.
    pub const UOC: u16 = 0x30;
    // ---- crates/mem: 0x40-0x4F ----
    /// One cache level (tag array + stats).
    pub const CACHE: u16 = 0x40;
    /// One TLB level.
    pub const TLB: u16 = 0x41;
    /// The composed TLB hierarchy.
    pub const TLB_HIERARCHY: u16 = 0x42;
    /// Miss-address buffers (MSHRs).
    pub const MSHR: u16 = 0x43;
    // ---- crates/prefetch: 0x50-0x5F ----
    /// Address re-order buffer + duplicate filter.
    pub const REORDER: u16 = 0x50;
    /// Prefetch degree controller.
    pub const DEGREE: u16 = 0x51;
    /// Multi-stride engine (streams + confirmation queues).
    pub const STRIDE: u16 = 0x52;
    /// Spatial-memory-streaming engine.
    pub const SMS: u16 = 0x53;
    /// Two-pass L1-fill controller.
    pub const TWOPASS: u16 = 0x54;
    /// Buddy (next-line) L2 prefetcher.
    pub const BUDDY: u16 = 0x55;
    /// Standalone L2 stride prefetcher.
    pub const STANDALONE: u16 = 0x56;
    /// Composed L1 prefetcher.
    pub const L1_PREFETCHER: u16 = 0x57;
    // ---- crates/dram: 0x60-0x6F ----
    /// One DRAM bank (open row + busy horizon).
    pub const DRAM_BANK: u16 = 0x60;
    /// The DRAM controller (banks + stats).
    pub const DRAM_CONTROLLER: u16 = 0x61;
    /// Speculative-read miss predictor.
    pub const MISS_PREDICTOR: u16 = 0x62;
    /// Snoop filter backing the miss predictor.
    pub const SNOOP_FILTER: u16 = 0x63;
    /// Speculative-read controller.
    pub const SPEC_READ: u16 = 0x64;
    // ---- crates/core: 0x70-0x7F ----
    /// Composed memory system.
    pub const MEMSYS: u16 = 0x70;
    /// Execution-port booking window.
    pub const PORTS: u16 = 0x71;
    /// Deterministic fault injector (plan + rng + counters).
    pub const FAULT_INJECTOR: u16 = 0x72;
    /// Forward-progress watchdog.
    pub const WATCHDOG: u16 = 0x73;
    /// Simulator timing state (fetch/ROB/PRF/retire).
    pub const SIM: u16 = 0x74;
    /// Cumulative simulator counters.
    pub const SIM_STATS: u16 = 0x75;
}

/// Typed decode failures. Encoding is infallible; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic {
        /// The u32 actually found (0 when the buffer is too short).
        found: u32,
    },
    /// The format version is not the one this build writes.
    UnsupportedVersion {
        /// Version in the header.
        found: u16,
        /// Version this decoder supports.
        supported: u16,
    },
    /// A read ran past the end of the buffer.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// A section opened with the wrong tag.
    SectionTag {
        /// Tag the component expected.
        expected: u16,
        /// Tag found in the stream.
        found: u16,
    },
    /// A read crossed the innermost section boundary.
    SectionOverrun {
        /// Tag of the violated section.
        tag: u16,
    },
    /// A section closed with payload bytes left unread.
    SectionUnderrun {
        /// Tag of the section.
        tag: u16,
        /// Unread payload bytes.
        leftover: usize,
    },
    /// Decoded state does not fit the configured component geometry.
    Geometry {
        /// What was being restored.
        what: &'static str,
        /// Size the configured instance has.
        expected: u64,
        /// Size found in the snapshot.
        found: u64,
    },
    /// A value failed semantic validation (bad bool, unknown enum tag…).
    Corrupt {
        /// What failed to validate.
        what: &'static str,
    },
    /// Decoding finished with bytes left over.
    TrailingBytes {
        /// Leftover byte count.
        count: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:#010x} (expected {MAGIC:#010x})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot format version {found} (this build reads {supported})")
            }
            SnapshotError::Truncated { needed, remaining } => {
                write!(f, "truncated snapshot: read needs {needed} bytes, {remaining} remain")
            }
            SnapshotError::SectionTag { expected, found } => {
                write!(f, "section tag mismatch: expected {expected:#06x}, found {found:#06x}")
            }
            SnapshotError::SectionOverrun { tag } => {
                write!(f, "read crossed the boundary of section {tag:#06x}")
            }
            SnapshotError::SectionUnderrun { tag, leftover } => {
                write!(f, "section {tag:#06x} closed with {leftover} payload bytes unread")
            }
            SnapshotError::Geometry { what, expected, found } => {
                write!(f, "snapshot geometry mismatch restoring {what}: configured {expected}, snapshot has {found}")
            }
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot value: {what}"),
            SnapshotError::TrailingBytes { count } => {
                write!(f, "snapshot decoded with {count} trailing bytes")
            }
        }
    }
}

impl Error for SnapshotError {}

/// A component that can serialize its dynamic state.
///
/// `restore` runs on an instance built from the *same configuration* the
/// snapshot was taken under: configuration-derived geometry is never
/// serialized, and a component whose decoded sequences do not match its
/// configured sizes reports [`SnapshotError::Geometry`].
///
/// Leaves and containers implement it in [`layout`]; components declare
/// an ordered field list with [`layout!`] instead of writing the two
/// methods by hand.
pub trait Snapshot {
    /// Append this value's state to `enc` (a component: as one tagged
    /// section).
    fn save(&self, enc: &mut Encoder);
    /// Overwrite this value's state from `dec`.
    fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError>;
    /// The fewest bytes any encoding of this type takes: the element
    /// size [`Decoder::seq`] checks a count against.
    fn min_len() -> usize
    where
        Self: Sized;
}

/// The deterministic binary encoder. All scalars are little-endian;
/// sections are backpatched with their payload length on close.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// Open sections: byte offset of each section's length word.
    open: Vec<usize>,
}

impl Encoder {
    /// An empty encoder (no header) — used for nested payloads in tests.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An encoder primed with the snapshot header carrying `meta`.
    pub fn with_header(meta: u16) -> Encoder {
        let mut e = Encoder::default();
        e.u32(MAGIC);
        e.u16(FORMAT_VERSION);
        e.u16(meta);
        e
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder. Panics in debug builds if sections are open.
    pub fn finish(self) -> Vec<u8> {
        debug_assert!(self.open.is_empty(), "unclosed snapshot section");
        self.buf
    }

    /// Open a section under `tag`; the length word is backpatched by
    /// [`Encoder::end_section`].
    pub fn begin_section(&mut self, tag: u16) {
        self.u16(tag);
        self.open.push(self.buf.len());
        self.u32(0);
    }

    /// Close the innermost open section.
    pub fn end_section(&mut self) {
        if let Some(at) = self.open.pop() {
            let len = (self.buf.len() - at - 4) as u32;
            self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        } else {
            debug_assert!(false, "end_section without begin_section");
        }
    }

    /// Write a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i8`.
    #[inline]
    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Write an `i32`.
    #[inline]
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `bool` as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write a `usize` as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a sequence count (`u32`). Callers then write the elements.
    pub fn seq(&mut self, count: usize) {
        debug_assert!(count <= u32::MAX as usize, "snapshot sequence too long");
        self.u32(count as u32);
    }
}

/// The bounds-checked decoder over a snapshot byte buffer.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Open sections: (tag, end offset).
    open: Vec<(u16, usize)>,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0, open: Vec::new() }
    }

    /// Validate the header (magic + version) and return the `meta` word.
    pub fn header(&mut self) -> Result<u16, SnapshotError> {
        let magic = self.u32().map_err(|_| SnapshotError::BadMagic { found: 0 })?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = self.u16()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        self.u16()
    }

    /// Bytes readable before the innermost boundary (section end or
    /// buffer end).
    pub fn remaining(&self) -> usize {
        self.limit() - self.pos
    }

    #[inline]
    fn limit(&self) -> usize {
        self.open.last().map_or(self.buf.len(), |&(_, end)| end)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let limit = self.limit();
        if self.pos + n > limit {
            if let Some(&(tag, _)) = self.open.last() {
                if self.pos + n <= self.buf.len() {
                    return Err(SnapshotError::SectionOverrun { tag });
                }
            }
            return Err(SnapshotError::Truncated {
                needed: n,
                remaining: limit - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Open a section, asserting its tag is `tag`.
    pub fn begin_section(&mut self, tag: u16) -> Result<(), SnapshotError> {
        let found = self.u16()?;
        if found != tag {
            return Err(SnapshotError::SectionTag { expected: tag, found });
        }
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(SnapshotError::Truncated { needed: len, remaining: self.remaining() });
        }
        self.open.push((tag, self.pos + len));
        Ok(())
    }

    /// Close the innermost section, asserting its payload was consumed
    /// exactly.
    pub fn end_section(&mut self) -> Result<(), SnapshotError> {
        match self.open.pop() {
            Some((_, end)) if self.pos == end => Ok(()),
            Some((tag, end)) => Err(SnapshotError::SectionUnderrun {
                tag,
                leftover: end.saturating_sub(self.pos),
            }),
            None => Err(SnapshotError::Corrupt { what: "end_section without begin_section" }),
        }
    }

    /// Assert the whole buffer was consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes { count: self.buf.len() - self.pos })
        }
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Read an `i8`.
    #[inline]
    pub fn i8(&mut self) -> Result<i8, SnapshotError> {
        Ok(self.u8()? as i8)
    }

    /// Read an `i32`.
    #[inline]
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(self.u32()? as i32)
    }

    /// Read an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    /// Read a `bool`, rejecting anything but 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { what: "bool byte not 0 or 1" }),
        }
    }

    /// Read a `usize` (stored as `u64`), rejecting values that do not fit.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Corrupt { what: "usize overflows the host" })
    }

    /// Read a sequence count written by [`Encoder::seq`]. `elem_min`
    /// (>= 1) is the smallest possible element encoding; the count is
    /// rejected when `count * elem_min` cannot fit in the bytes left, so
    /// corrupt counts fail fast instead of driving huge allocations.
    pub fn seq(&mut self, elem_min: usize) -> Result<usize, SnapshotError> {
        let count = self.u32()? as usize;
        let need = count.saturating_mul(elem_min.max(1));
        if need > self.remaining() {
            return Err(SnapshotError::Truncated { needed: need, remaining: self.remaining() });
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a-64 vectors, and the digest does not depend on
    /// how the input is split into chunks.
    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(&[]), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(&[b"a"]), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x8594_4171_F739_67E8);
        assert_eq!(fnv1a64(&[b"foo", b"", b"bar"]), fnv1a64(&[b"foobar"]));
    }

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::with_header(42);
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i8(-5);
        e.i32(-100_000);
        e.i64(i64::MIN + 1);
        e.bool(true);
        e.bool(false);
        e.usize(12345);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.header().unwrap(), 42);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i8().unwrap(), -5);
        assert_eq!(d.i32().unwrap(), -100_000);
        assert_eq!(d.i64().unwrap(), i64::MIN + 1);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.usize().unwrap(), 12345);
        d.finish().unwrap();
    }

    #[test]
    fn nested_sections_roundtrip() {
        let mut e = Encoder::new();
        e.begin_section(tags::FRONTEND);
        e.u64(1);
        e.begin_section(tags::RAS);
        e.u32(2);
        e.end_section();
        e.u8(3);
        e.end_section();
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.begin_section(tags::FRONTEND).unwrap();
        assert_eq!(d.u64().unwrap(), 1);
        d.begin_section(tags::RAS).unwrap();
        assert_eq!(d.u32().unwrap(), 2);
        d.end_section().unwrap();
        assert_eq!(d.u8().unwrap(), 3);
        d.end_section().unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let bytes = [1u8, 2, 3, 4, 0, 0, 0, 0];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.header(), Err(SnapshotError::BadMagic { .. })));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut e = Encoder::new();
        e.u32(MAGIC);
        e.u16(FORMAT_VERSION + 1);
        e.u16(0);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.header(),
            Err(SnapshotError::UnsupportedVersion { found, .. }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        let mut e = Encoder::with_header(0);
        e.begin_section(tags::SIM);
        e.u64(9);
        e.end_section();
        let bytes = e.finish();
        // Chop the buffer at every prefix length: decode must error (not
        // panic) on all of them.
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            let r = d
                .header()
                .and_then(|_| d.begin_section(tags::SIM))
                .and_then(|_| d.u64().map(|_| ()))
                .and_then(|_| d.end_section());
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn section_overrun_is_caught() {
        let mut e = Encoder::new();
        e.begin_section(tags::SHP);
        e.u16(1);
        e.end_section();
        e.u64(0xFFFF_FFFF);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.begin_section(tags::SHP).unwrap();
        // Reading u32 would cross the 2-byte payload boundary.
        assert!(matches!(d.u32(), Err(SnapshotError::SectionOverrun { tag }) if tag == tags::SHP));
    }

    #[test]
    fn section_underrun_is_caught() {
        let mut e = Encoder::new();
        e.begin_section(tags::SHP);
        e.u32(5);
        e.end_section();
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.begin_section(tags::SHP).unwrap();
        let _ = d.u16().unwrap();
        assert!(matches!(
            d.end_section(),
            Err(SnapshotError::SectionUnderrun { leftover: 2, .. })
        ));
    }

    #[test]
    fn wrong_tag_is_typed() {
        let mut e = Encoder::new();
        e.begin_section(tags::SHP);
        e.end_section();
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.begin_section(tags::BTB),
            Err(SnapshotError::SectionTag { expected, found })
                if expected == tags::BTB && found == tags::SHP
        ));
    }

    #[test]
    fn absurd_sequence_count_is_rejected_cheaply() {
        let mut e = Encoder::new();
        e.u32(u32::MAX); // claims 4 billion elements
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.seq(8), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Encoder::with_header(0);
        e.u8(1);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let _ = d.header().unwrap();
        assert!(matches!(d.finish(), Err(SnapshotError::TrailingBytes { count: 1 })));
    }

    use crate::layout::{Bounded, Fixed, Present, Shape};
    use std::collections::VecDeque;

    /// One image byte string from a closure over a fresh encoder.
    fn encode(f: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new();
        f(&mut e);
        e.finish()
    }

    #[test]
    fn bool_byte_of_two_is_corrupt() {
        let mut b = false;
        assert!(matches!(
            b.restore(&mut Decoder::new(&[2])),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn option_flag_of_two_is_corrupt() {
        let bytes = encode(|e| {
            e.u8(2);
            e.u64(7);
        });
        let mut v: Option<u64> = None;
        assert!(matches!(
            v.restore(&mut Decoder::new(&bytes)),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn fixed_vec_of_the_wrong_length_is_geometry() {
        let bytes = encode(|e| Fixed("t").save(&vec![1u32, 2, 3], e));
        let mut v = vec![0u32; 4];
        assert_eq!(
            Fixed("t").restore(&mut v, &mut Decoder::new(&bytes)),
            Err(SnapshotError::Geometry { what: "t", expected: 4, found: 3 })
        );
        let mut v = vec![0u32; 3];
        Fixed("t").restore(&mut v, &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn bounded_queue_over_its_cap_is_geometry() {
        let q: VecDeque<u64> = (0..5).collect();
        let bytes = encode(|e| Bounded(5, "q").save(&q, e));
        let mut r = VecDeque::new();
        assert_eq!(
            Bounded(4, "q").restore(&mut r, &mut Decoder::new(&bytes)),
            Err(SnapshotError::Geometry { what: "q", expected: 4, found: 5 })
        );
        Bounded(5, "q").restore(&mut r, &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(r, q);
    }

    #[test]
    fn presence_mismatch_is_geometry() {
        let bytes = encode(|e| Present("p").save(&Some(9u64), e));
        let mut absent: Option<u64> = None;
        assert_eq!(
            Present("p").restore(&mut absent, &mut Decoder::new(&bytes)),
            Err(SnapshotError::Geometry { what: "p", expected: 0, found: 1 })
        );
        let mut bad = bytes.clone();
        bad[0] = 2;
        let mut present = Some(0u64);
        assert_eq!(
            Present("p").restore(&mut present, &mut Decoder::new(&bad)),
            Err(SnapshotError::Corrupt { what: "p" })
        );
        Present("p").restore(&mut present, &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(present, Some(9));
    }

    #[test]
    fn u32_max_count_is_truncated_before_any_allocation() {
        let bytes = encode(|e| e.u32(u32::MAX));
        let mut v: Vec<u64> = Vec::new();
        assert!(matches!(
            Bounded(usize::MAX, "v").restore(&mut v, &mut Decoder::new(&bytes)),
            Err(SnapshotError::Truncated { .. })
        ));
        assert_eq!(v.capacity(), 0);
        let mut v: Vec<(u64, bool)> = Vec::new();
        assert!(matches!(
            v.restore(&mut Decoder::new(&bytes)),
            Err(SnapshotError::Truncated { .. })
        ));
        assert_eq!(v.capacity(), 0);
    }

    #[derive(Debug, Default, PartialEq)]
    struct Elem {
        a: u16,
        b: [i8; 3],
    }
    crate::layout! { Elem { a, b } }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Off,
        On,
    }
    crate::codes! { ModeCode: Mode as u8, "mode tag" { Off = 0, On = 1 } }

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        hits: u64,
    }
    crate::layout! { Inner { hits } }

    #[derive(Debug, PartialEq)]
    struct Component {
        cap: usize,
        table: Vec<u8>,
        queue: Vec<Elem>,
        opt: Option<(u32, bool)>,
        member: Option<Inner>,
        mode: Mode,
        inner: Inner,
        checked: bool,
    }
    crate::layout! {
        Component [tags::SIM] |s| {
            table: Fixed("table"),
            queue: Bounded(s.cap, "queue"),
            opt,
            member: Present("member"),
            mode: Via(ModeCode),
            inner,
        } then after
    }

    impl Component {
        fn new(cap: usize) -> Component {
            Component {
                cap,
                table: vec![0; 3],
                queue: Vec::new(),
                opt: None,
                member: Some(Inner::default()),
                mode: Mode::Off,
                inner: Inner::default(),
                checked: false,
            }
        }

        fn after(&mut self) -> Result<(), SnapshotError> {
            self.checked = true;
            Ok(())
        }
    }

    #[test]
    fn layout_walks_one_list_both_ways() {
        let mut c = Component::new(2);
        c.table = vec![1, 2, 3];
        c.queue = vec![Elem { a: 5, b: [1, -2, 3] }, Elem { a: 6, b: [0; 3] }];
        c.opt = Some((7, true));
        c.member = Some(Inner { hits: 8 });
        c.mode = Mode::On;
        c.inner.hits = 9;
        let bytes = encode(|e| c.save(e));
        // Section header, then the fields in list order.
        let mut want = encode(|e| {
            e.begin_section(tags::SIM);
            e.seq(3);
            [1, 2, 3].into_iter().for_each(|b| e.u8(b));
            e.seq(2);
            e.u16(5);
            [1, -2, 3].into_iter().for_each(|b| e.i8(b));
            e.u16(6);
            [0; 3].into_iter().for_each(|b| e.i8(b));
            e.u8(1);
            e.u32(7);
            e.bool(true);
            e.u8(1);
            e.u64(8);
            e.u8(1);
            e.u64(9);
            e.end_section();
        });
        assert_eq!(bytes, want);
        let mut r = Component::new(2);
        let mut d = Decoder::new(&bytes);
        r.restore(&mut d).unwrap();
        d.finish().unwrap();
        assert!(r.checked);
        r.checked = false;
        assert_eq!(r, c);
        // min_len: section header + empty seqs, flags, code, counter.
        assert_eq!(Component::min_len(), 6 + 4 + 4 + 1 + 1 + 1 + 8);
        assert_eq!(Elem::min_len(), 5);
        // The receiver-dependent cap is the restoring instance's.
        assert!(matches!(
            Component::new(1).restore(&mut Decoder::new(&bytes)),
            Err(SnapshotError::Geometry { what: "queue", expected: 1, found: 2 })
        ));
        // An unknown code is corrupt.
        let at = want.len() - 9;
        want[at] = 9;
        assert_eq!(
            Component::new(2).restore(&mut Decoder::new(&want)),
            Err(SnapshotError::Corrupt { what: "mode tag" })
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let mut e = Encoder::with_header(3);
            e.begin_section(tags::UOC);
            e.u64(77);
            e.bool(true);
            e.end_section();
            e.finish()
        };
        assert_eq!(build(), build());
    }
}
