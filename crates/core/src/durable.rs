//! Shared durable-I/O layer: CRC32C record framing, the one atomic
//! commit helper every artifact writer uses, and the disk-fault plan.
//!
//! Every durable artifact this crate writes — the campaign journal, the
//! coordinator's state-dir queue logs, `MTCSPILL` runs, and the `MTCV`
//! verdict cache — frames its records with a CRC32C checksum through this
//! module, so a torn write, a bit flip, or silent truncation is *detected*
//! rather than parsed-and-proceeded. What happens after detection is an
//! explicit per-artifact recovery policy (see `DESIGN.md`, "On-disk
//! integrity"):
//!
//! * **append logs** (journal, state-dir) — skip the corrupt record with a
//!   surfaced counter; `mtracecheck fsck --repair` compacts to the valid
//!   records;
//! * **cache entries** (`MTCV`) — quarantine the corrupt file and rebuild
//!   from the salvageable prefix;
//! * **spill runs** feeding a merge — hard error naming the byte offset
//!   (a merge over a doctored run would silently change verdicts).

use std::fs::{self, File};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

// --- CRC32C (Castagnoli) ------------------------------------------------

/// Byte-at-a-time lookup table for the Castagnoli polynomial (reflected
/// 0x82F63B78) — the CRC with the best error-detection record for short
/// records, and hardware-accelerated everywhere (SSE4.2 `crc32`, ARMv8
/// `crc32c`), so a future SIMD fast path computes identical values.
static CRC32C_TABLE: [u32; 256] = crc32c_table();

const fn crc32c_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32C (Castagnoli) of `bytes`, with the standard init/final inversion.
pub(crate) fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// --- per-line record framing for JSONL artifacts ------------------------

/// The frame suffix tag appended to every line of a framed JSONL artifact:
/// `<payload>#mtcf1=<8 lowercase hex CRC32C of payload>`. A *suffix* so
/// line-oriented consumers that key on the payload's leading bytes (footer
/// filters, `starts_with` probes) keep working unchanged; the version digit
/// is bumped on incompatible frame changes.
pub(crate) const FRAME_TAG: &str = "#mtcf1=";

/// Frames one record line: payload, tag, CRC32C as exactly 8 lowercase hex
/// digits. The frame must be the last thing on the line — trailing bytes
/// after the CRC make [`unframe_line`] fail, so appended junk is detected.
pub fn frame_line(payload: &str) -> String {
    format!("{payload}{FRAME_TAG}{:08x}", crc32c(payload.as_bytes()))
}

/// Why a line failed frame validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// No well-formed `#mtcf1=<hex8>` suffix (torn write, truncation, or a
    /// pre-framing file).
    Missing,
    /// The suffix parses but the CRC does not match the payload.
    Mismatch {
        /// CRC32C of the payload as found on disk.
        expected: u32,
        /// CRC recorded in the frame suffix.
        found: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Missing => write!(f, "missing record frame"),
            FrameError::Mismatch { expected, found } => write!(
                f,
                "record checksum mismatch (payload {expected:08x}, frame {found:08x})"
            ),
        }
    }
}

/// Validates and strips a line's frame, returning the payload.
///
/// Strict by construction: the CRC must be exactly 8 *lowercase* hex
/// digits (case-insensitive parsing would let a case flip inside the CRC
/// field go undetected) and must terminate the line.
pub fn unframe_line(line: &str) -> Result<&str, FrameError> {
    let crc_start = line.len().checked_sub(8).ok_or(FrameError::Missing)?;
    let tag_start = crc_start
        .checked_sub(FRAME_TAG.len())
        .ok_or(FrameError::Missing)?;
    if !line.is_char_boundary(tag_start) || &line[tag_start..crc_start] != FRAME_TAG {
        return Err(FrameError::Missing);
    }
    let hex = &line[crc_start..];
    if !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(FrameError::Missing);
    }
    let found = u32::from_str_radix(hex, 16).expect("validated lowercase hex");
    let payload = &line[..tag_start];
    let expected = crc32c(payload.as_bytes());
    if expected != found {
        return Err(FrameError::Mismatch { expected, found });
    }
    Ok(payload)
}

// --- the shared atomic commit helper ------------------------------------

/// Writes a file via temp sibling + fsync + atomic rename: at every
/// instant `path` holds either its previous complete contents or the new
/// complete contents, never a prefix. This is the single commit path for
/// every artifact rewrite in the crate (journal header/checkpoint, `MTCS`
/// sidecar, `MTCV` cache, fsck repairs); the temp name carries the pid and
/// a per-process sequence number, so concurrent writers of one path —
/// in different processes or in one — never share a temp file.
pub(crate) fn commit_atomically(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("artifact"), ToOwned::to_owned);
    let seq = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = path.with_file_name(name);
    let mut file = File::create(&tmp)?;
    let written = write(&mut file).and_then(|()| file.sync_all());
    drop(file);
    let result = written.and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = result {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// The synthetic "disk full" error the fault plan injects — carries the
/// real `ENOSPC` errno so production classification code paths (which key
/// on `raw_os_error`) treat it exactly like the genuine condition.
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
pub(crate) fn enospc() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC_ERRNO)
}

/// POSIX `ENOSPC`.
const ENOSPC_ERRNO: i32 = 28;

/// Whether an I/O error is the disk filling up.
pub(crate) fn is_disk_full(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC_ERRNO)
}

// --- deterministic disk-fault plan --------------------------------------

/// Deterministic disk-fault injection plan (compiled only with the
/// `fault-inject` feature), the storage-layer sibling of
/// [`FaultPlan`](crate::FaultPlan) and the service's `NetFaultPlan`.
///
/// Journal faults key on suite index, spill faults on the store's 0-based
/// run ordinal, so a test can prove precise properties: "a torn write on
/// test 1's journal record is detected by fsck, repaired, and the resumed
/// campaign's final journal is byte-identical to an uninterrupted run's".
#[cfg(feature = "fault-inject")]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// Tear the journal append for these suite indices: only the first
    /// `keep` bytes of the record line reach the file and no newline
    /// follows, exactly the scar of a power cut mid-`write`. The append
    /// reports success — torn writes are only discovered on read-back.
    pub torn_journal_at: Vec<(u64, usize)>,
    /// Flip the lowest bit of byte `offset` of these suite indices'
    /// journal record lines after framing — corruption that still parses
    /// as a line and is caught only by the CRC.
    pub flip_journal_at: Vec<(u64, usize)>,
    /// Fail the journal append for these suite indices with `ENOSPC` (the
    /// journal degrades; the campaign continues).
    pub journal_enospc_at: Vec<u64>,
    /// Fail these 0-based spill-run ordinals with `ENOSPC` before any
    /// bytes are written (classified as [`FailureCause::DiskFull`]).
    ///
    /// [`FailureCause::DiskFull`]: crate::FailureCause::DiskFull
    pub spill_enospc_at: Vec<u64>,
    /// Truncate these spill runs to `keep` bytes after a successful
    /// write+fsync — a short write the merge must refuse to trust.
    pub truncate_spill_at: Vec<(u64, u64)>,
    /// Fail every atomic-commit fsync (journal checkpoint finalization):
    /// the rename is skipped, the previous file survives, the writer
    /// degrades.
    pub commit_fsync_fails: bool,
}

#[cfg(feature = "fault-inject")]
impl DiskFaultPlan {
    /// Bytes to keep of test `index`'s journal record, if its append is
    /// planned torn.
    pub(crate) fn torn_journal(&self, index: u64) -> Option<usize> {
        self.torn_journal_at
            .iter()
            .find(|&&(i, _)| i == index)
            .map(|&(_, keep)| keep)
    }

    /// Byte offset to bit-flip in test `index`'s journal record, if any.
    pub(crate) fn flip_journal(&self, index: u64) -> Option<usize> {
        self.flip_journal_at
            .iter()
            .find(|&&(i, _)| i == index)
            .map(|&(_, offset)| offset)
    }

    /// Whether test `index`'s journal append fails with `ENOSPC`.
    pub(crate) fn journal_enospc(&self, index: u64) -> bool {
        self.journal_enospc_at.contains(&index)
    }

    /// Whether spill run `ordinal` fails with `ENOSPC`.
    pub(crate) fn spill_enospc(&self, ordinal: u64) -> bool {
        self.spill_enospc_at.contains(&ordinal)
    }

    /// Bytes to keep of spill run `ordinal`, if it is planned truncated.
    pub(crate) fn truncate_spill(&self, ordinal: u64) -> Option<u64> {
        self.truncate_spill_at
            .iter()
            .find(|&&(o, _)| o == ordinal)
            .map(|&(_, keep)| keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_the_published_check_value() {
        // The canonical CRC-32C check: crc("123456789") == 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
    }

    #[test]
    fn framed_lines_roundtrip() {
        let long = "x".repeat(300);
        for payload in ["", "{\"Footer\":{}}", long.as_str()] {
            let line = frame_line(payload);
            assert!(line.starts_with(payload));
            assert_eq!(unframe_line(&line), Ok(payload));
        }
    }

    #[test]
    fn every_single_byte_mutation_is_detected() {
        let line = frame_line("{\"Test\":{\"index\":3}}");
        let bytes = line.as_bytes();
        for i in 0..bytes.len() {
            for v in 0..=255u8 {
                if v == bytes[i] {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[i] = v;
                // Non-UTF8 mutations can't even form a &str — detected at
                // an outer layer; valid ones must fail the frame check.
                if let Ok(s) = std::str::from_utf8(&mutated) {
                    assert!(
                        unframe_line(s).is_err(),
                        "mutation at byte {i} to {v:#x} went undetected: {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn uppercase_crc_hex_is_rejected() {
        // Case-insensitive hex parsing would make an 'a' -> 'A' flip
        // inside the CRC field invisible; the frame is strictly lowercase.
        let line = frame_line("payload");
        let upper = line.to_uppercase();
        assert_ne!(line, upper, "fixture must exercise a case flip");
        assert!(unframe_line(&upper).is_err());
    }

    #[test]
    fn truncated_frames_are_missing_not_mismatched() {
        let line = frame_line("{\"k\":1}");
        for cut in 0..line.len() {
            assert!(unframe_line(&line[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A fresh directory per call: pid, tag and a per-process counter.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mtc-durable-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_replaces_the_file_atomically() {
        let dir = temp_dir("replace");
        let path = dir.join("artifact");
        use std::io::Write;
        commit_atomically(&path, |f| f.write_all(b"first")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        commit_atomically(&path, |f| f.write_all(b"second")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // A failed write leaves the previous contents and no temp litter.
        let err = commit_atomically(&path, |_| Err(io::Error::other("boom")));
        assert!(err.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_commits_to_one_path_leave_one_complete_payload() {
        use std::io::Write;
        let dir = temp_dir("concurrent");
        let path = dir.join("artifact");
        // Distinct lengths and fill bytes: a torn or interleaved file
        // matches none of them.
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|w| vec![b'a' + w; 4096 + usize::from(w) * 511])
            .collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..25 {
                        commit_atomically(path, |f| f.write_all(payload)).unwrap();
                    }
                });
            }
        });
        let contents = fs::read(&path).unwrap();
        assert!(
            payloads.contains(&contents),
            "file holds {} bytes that match no single payload",
            contents.len()
        );
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["artifact"], "temp files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_classified_as_disk_full() {
        assert!(is_disk_full(&enospc()));
        assert!(!is_disk_full(&io::Error::other("boom")));
    }
}
