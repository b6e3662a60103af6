//! Append-only, crash-tolerant record journal.
//!
//! The service tier's write-ahead log: every record is framed with a
//! magic, a length, and an FNV-1a-64 checksum, and the writer syncs each
//! append, so a `kill -9` mid-write leaves at most one *torn tail* frame.
//! The reader validates frames in order and stops — without failing — at
//! the first torn or corrupt tail, reporting how much clean prefix it
//! recovered. Replaying a journal over deterministic jobs therefore
//! reconstructs exactly the pre-crash state.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! u32 magic "EXJL" | u8 kind | u64 seq | u32 len | len payload bytes | u64 fnv1a(kind, seq, payload)
//! ```
//!
//! The journal is content-agnostic: `kind` and `payload` belong to the
//! layer above (the service journals job submissions and terminal
//! outcomes). `seq` is a caller-supplied monotone sequence number; the
//! reader rejects (as tail corruption) any frame whose `seq` is not
//! strictly greater than its predecessor's, which catches blocks of
//! recycled disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Frame magic: "EXJL" little-endian.
pub const JOURNAL_MAGIC: u32 = 0x4C4A_5845;

/// The frame checksum: FNV-1a-64 over `kind`, `seq` (LE bytes) and the
/// payload.
fn fnv1a(kind: u8, seq: u64, payload: &[u8]) -> u64 {
    crate::fnv1a64(&[&[kind], &seq.to_le_bytes(), payload])
}

/// One clean frame recovered from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Caller-defined record type.
    pub kind: u8,
    /// Caller-supplied monotone sequence number.
    pub seq: u64,
    /// Record body.
    pub payload: Vec<u8>,
}

/// The clean prefix of a journal, plus whether a torn/corrupt tail was
/// discarded to obtain it.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Every validated frame, in append order.
    pub records: Vec<JournalRecord>,
    /// `true` when trailing bytes failed validation (torn final write
    /// from a crash) and were dropped.
    pub torn_tail: bool,
}

/// Journal I/O errors. Frame corruption is *not* an error — it
/// terminates the scan (see [`JournalScan::torn_tail`]); only the file
/// system can fail a journal operation.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying file-system error.
    Io(std::io::Error),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Appending side of the journal. Each [`append`](JournalWriter::append)
/// writes one complete frame and syncs file data, giving the layer above
/// write-ahead semantics: once `append` returns, the record survives a
/// crash.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Open `path` for appending, creating it if absent.
    pub fn open(path: &Path) -> Result<JournalWriter, JournalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Append one framed record and sync it to disk.
    pub fn append(&mut self, kind: u8, seq: u64, payload: &[u8]) -> Result<(), JournalError> {
        let mut frame = Vec::with_capacity(25 + payload.len());
        frame.extend_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        frame.push(kind);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a(kind, seq, payload).to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Scan the journal at `path`, returning its clean prefix. A missing
/// file is an empty scan, so first boot and restart share one code path.
pub fn scan(path: &Path) -> Result<JournalScan, JournalError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(e.into()),
    }
    Ok(scan_bytes(&bytes))
}

fn scan_bytes(bytes: &[u8]) -> JournalScan {
    let mut out = JournalScan::default();
    let mut pos = 0usize;
    let mut last_seq: Option<u64> = None;
    while pos < bytes.len() {
        let Some(rec) = parse_frame(&bytes[pos..]) else {
            out.torn_tail = true;
            break;
        };
        if last_seq.is_some_and(|prev| rec.0.seq <= prev) {
            out.torn_tail = true;
            break;
        }
        last_seq = Some(rec.0.seq);
        pos += rec.1;
        out.records.push(rec.0);
    }
    out
}

/// Parse one frame from the front of `b`; `None` on truncation or any
/// validation failure. Returns the record and its encoded size.
fn parse_frame(b: &[u8]) -> Option<(JournalRecord, usize)> {
    const HEADER: usize = 4 + 1 + 8 + 4;
    if b.len() < HEADER {
        return None;
    }
    let magic = u32::from_le_bytes(b[0..4].try_into().ok()?);
    if magic != JOURNAL_MAGIC {
        return None;
    }
    let kind = b[4];
    let seq = u64::from_le_bytes(b[5..13].try_into().ok()?);
    let len = u32::from_le_bytes(b[13..17].try_into().ok()?) as usize;
    let total = HEADER + len + 8;
    if b.len() < total {
        return None;
    }
    let payload = &b[HEADER..HEADER + len];
    let want = u64::from_le_bytes(b[HEADER + len..total].try_into().ok()?);
    if fnv1a(kind, seq, payload) != want {
        return None;
    }
    Some((JournalRecord { kind, seq, payload: payload.to_vec() }, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("exynos-journal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_preserves_records_in_order() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(1, 1, b"alpha").unwrap();
            w.append(2, 2, b"").unwrap();
            w.append(1, 3, &[0u8, 255, 42]).unwrap();
        }
        let s = scan(&path).unwrap();
        assert!(!s.torn_tail);
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[0].payload, b"alpha");
        assert_eq!(s.records[1].kind, 2);
        assert_eq!(s.records[2].seq, 3);
        // Reopen appends after the existing tail.
        let mut w = JournalWriter::open(&path).unwrap();
        w.append(1, 4, b"later").unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_scans_empty() {
        let path = tmp("absent");
        let _ = std::fs::remove_file(&path);
        let s = scan(&path).unwrap();
        assert!(s.records.is_empty() && !s.torn_tail);
    }

    #[test]
    fn torn_tail_is_dropped_and_flagged() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(1, 1, b"keep-me").unwrap();
            w.append(1, 2, b"torn-victim").unwrap();
        }
        // Simulate the kill -9 mid-write: chop bytes off the last frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail, "truncated tail must be reported");
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].payload, b"keep-me");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_ends_the_scan() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(1, 1, b"good").unwrap();
            w.append(1, 2, b"flipped").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0x40; // flip one payload bit in the second frame
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_monotone_sequence_is_rejected() {
        let path = tmp("seq");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path).unwrap();
            w.append(1, 5, b"a").unwrap();
            w.append(1, 5, b"b").unwrap();
        }
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
