//! Compact binary session snapshots.
//!
//! A snapshot is the full roster state at one version, laid out as the
//! length-prefixed `u32`/`u64` arrays the serving arenas are built from —
//! mirroring the CSR shape of the answered cells so rehydration is a
//! sequential array read straight into [`ResponseLog::restore`], not a
//! JSON parse (see `hnd-datasets::storage` for the interchange-format
//! counterpart this deliberately is *not*).
//!
//! ```text
//! [8B magic "HNDSNAP1"]
//! [u32 body_len][u32 crc32(body)]
//! body := [u8 format]
//!         [u64 n_users][u64 n_items][u64 version]
//!         [u32 n_options][u32 × n_options]          options per item
//!         [u64 × (n_users + 1)]                     CSR row_ptr
//!         [u32 nnz][u32 × nnz]                      answered item ids
//!         [u32 × nnz]                               chosen options
//! ```
//!
//! Writes are atomic: body to a temp file, `fsync`, `rename` over the
//! target, `fsync` the directory. A torn snapshot write therefore leaves
//! the *previous* snapshot intact, and a corrupted body fails the CRC and
//! is reported as damage, never parsed.

use crate::frame::{crc32, Crc32};
use crate::wal::sync_dir;
use crate::StoreError;
use hnd_response::ResponseLog;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic of a binary session snapshot.
pub const SNAP_MAGIC: [u8; 8] = *b"HNDSNAP1";
const FORMAT_VERSION: u8 = 1;
/// Byte offset of the body CRC in the header.
const CRC_OFFSET: u64 = 12;

/// Answered cells of `log` (the body's `nnz`).
fn answered_cells(log: &ResponseLog) -> usize {
    (0..log.n_users())
        .map(|u| log.user_row(u).iter().filter(|c| c.is_some()).count())
        .sum()
}

/// Length of the snapshot body of a log with `m` users, `n` items and
/// `nnz` answered cells.
fn body_len(m: usize, n: usize, nnz: usize) -> usize {
    1 + 24 + 4 + 4 * n + 8 * (m + 1) + 4 + 8 * nnz
}

/// A writer that checksums everything passing through it.
struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
    written: usize,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Streams the snapshot body of `log` (no envelope) into `w`, array by
/// array straight from the log's rows — the CSR arrays are never
/// materialized.
fn write_body(w: &mut impl Write, log: &ResponseLog, nnz: usize) -> std::io::Result<()> {
    let (m, n) = (log.n_users(), log.n_items());
    let rows = || (0..m).map(|u| log.user_row(u));
    w.write_all(&[FORMAT_VERSION])?;
    w.write_all(&(m as u64).to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&log.version().to_le_bytes())?;
    w.write_all(&(n as u32).to_le_bytes())?;
    for &k in log.options() {
        w.write_all(&u32::from(k).to_le_bytes())?;
    }
    // CSR of answered cells: row_ptr over users, then (item, choice) pairs.
    let mut ptr = 0u64;
    w.write_all(&ptr.to_le_bytes())?;
    for row in rows() {
        ptr += row.iter().filter(|c| c.is_some()).count() as u64;
        w.write_all(&ptr.to_le_bytes())?;
    }
    w.write_all(&(nnz as u32).to_le_bytes())?;
    for row in rows() {
        for (i, cell) in row.iter().enumerate() {
            if cell.is_some() {
                w.write_all(&(i as u32).to_le_bytes())?;
            }
        }
    }
    for row in rows() {
        for &c in row.iter().flatten() {
            w.write_all(&u32::from(c).to_le_bytes())?;
        }
    }
    Ok(())
}

/// Atomically writes the snapshot of `log` at its current version.
///
/// The body streams to the temp file through a buffer with an incremental
/// CRC, so the write holds no copy of the body: the header's length is
/// known up front from the answered-cell count, and its CRC slot is
/// patched once the body is out, before the `fsync`.
pub(crate) fn write_snapshot(path: &Path, log: &ResponseLog) -> Result<(), StoreError> {
    let nnz = answered_cells(log);
    let len = body_len(log.n_users(), log.n_items(), nnz);
    let len_word = u32::try_from(len).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("snapshot body of {len} bytes overflows its u32 length word"),
        )
    })?;
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&SNAP_MAGIC)?;
        f.write_all(&len_word.to_le_bytes())?;
        f.write_all(&[0; 4])?;
        let mut body = BufWriter::with_capacity(
            1 << 16,
            CrcWriter {
                inner: &mut f,
                crc: Crc32::default(),
                written: 0,
            },
        );
        write_body(&mut body, log, nnz)?;
        let body = body.into_inner().map_err(|e| e.into_error())?;
        if body.written != len {
            return Err(std::io::Error::other(format!(
                "snapshot body wrote {} bytes, header says {len}",
                body.written
            ))
            .into());
        }
        let crc = body.crc.finish();
        f.seek(SeekFrom::Start(CRC_OFFSET))?;
        f.write_all(&crc.to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))?;
    Ok(())
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

fn corrupt(path: &Path, what: &str) -> StoreError {
    StoreError::Corrupt {
        detail: format!("{}: {what}", path.display()),
    }
}

/// Reads and CRC-validates a snapshot, rehydrating it as a
/// [`ResponseLog`] at the snapshotted version (history base = version:
/// the WAL tail supplies anything newer).
pub(crate) fn read_snapshot(path: &Path) -> Result<ResponseLog, StoreError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < 16 || raw[..8] != SNAP_MAGIC {
        return Err(corrupt(path, "bad snapshot magic"));
    }
    let body_len = u32::from_le_bytes(raw[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(raw[12..16].try_into().unwrap());
    let Some(body) = raw.get(16..16 + body_len) else {
        return Err(corrupt(path, "torn snapshot body"));
    };
    if crc32(body) != crc {
        return Err(corrupt(path, "snapshot CRC mismatch"));
    }

    let mut c = Cursor { buf: body, pos: 0 };
    let parsed = (|| {
        if c.u8()? != FORMAT_VERSION {
            return None;
        }
        let m = usize::try_from(c.u64()?).ok()?;
        let n = usize::try_from(c.u64()?).ok()?;
        let version = c.u64()?;
        let n_options = c.u32()? as usize;
        if n_options != n {
            return None;
        }
        let mut options = Vec::with_capacity(n);
        for _ in 0..n {
            options.push(u16::try_from(c.u32()?).ok()?);
        }
        let mut row_ptr = Vec::with_capacity(m + 1);
        for _ in 0..=m {
            row_ptr.push(usize::try_from(c.u64()?).ok()?);
        }
        let nnz = c.u32()? as usize;
        if row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&nnz)
            || row_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return None;
        }
        let mut choices: Vec<Option<u16>> = vec![None; m.checked_mul(n)?];
        let mut items = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            items.push(c.u32()? as usize);
        }
        for (k, &item) in items.iter().enumerate() {
            let user = row_ptr.partition_point(|&p| p <= k) - 1;
            if item >= n {
                return None;
            }
            choices[user * n + item] = Some(u16::try_from(c.u32()?).ok()?);
        }
        (c.pos == body.len()).then_some((m, n, options, choices, version))
    })();
    let Some((m, n, options, choices, version)) = parsed else {
        return Err(corrupt(path, "malformed snapshot body"));
    };
    ResponseLog::restore(m, n, &options, choices, version).map_err(StoreError::Response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The in-memory encoder the streaming writer replaced: the whole
    /// file (envelope and body) as one buffer. The oracle of
    /// [`streamed_file_matches_the_in_memory_encoder`].
    fn encode_file(log: &ResponseLog) -> Vec<u8> {
        let (m, n) = (log.n_users(), log.n_items());
        let mut row_ptr: Vec<u64> = Vec::with_capacity(m + 1);
        let mut items: Vec<u32> = Vec::new();
        let mut choices: Vec<u32> = Vec::new();
        row_ptr.push(0);
        for u in 0..m {
            for (i, &cell) in log.user_row(u).iter().enumerate() {
                if let Some(c) = cell {
                    items.push(i as u32);
                    choices.push(u32::from(c));
                }
            }
            row_ptr.push(items.len() as u64);
        }
        let mut body = Vec::new();
        body.push(FORMAT_VERSION);
        put_u64(&mut body, m as u64);
        put_u64(&mut body, n as u64);
        put_u64(&mut body, log.version());
        put_u32(&mut body, n as u32);
        for &k in log.options() {
            put_u32(&mut body, u32::from(k));
        }
        for &p in &row_ptr {
            put_u64(&mut body, p);
        }
        put_u32(&mut body, items.len() as u32);
        for &i in &items {
            put_u32(&mut body, i);
        }
        for &c in &choices {
            put_u32(&mut body, c);
        }
        let mut file = SNAP_MAGIC.to_vec();
        put_u32(&mut file, body.len() as u32);
        put_u32(&mut file, crc32(&body));
        file.extend(body);
        file
    }

    #[test]
    fn streamed_file_matches_the_in_memory_encoder() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for case in 0..40 {
            let (m, n) = (1 + next(60), 1 + next(12));
            let options: Vec<u16> = (0..n).map(|_| 1 + next(6) as u16).collect();
            let mut log = ResponseLog::new(m, n, &options).unwrap();
            // Densities from empty to full, in a few waves.
            let density = case % 5;
            for _ in 0..1 + next(3) {
                let edits: Vec<(usize, usize, Option<u16>)> = (0..m * n * density / 4)
                    .map(|_| {
                        let item = next(n);
                        let pick = next(options[item] as usize + 1);
                        (next(m), item, (pick > 0).then(|| pick as u16 - 1))
                    })
                    .collect();
                log.submit(edits).unwrap();
            }
            let path = temp_path("stream");
            write_snapshot(&path, &log).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                encode_file(&log),
                "case {case}"
            );
            assert_eq!(read_snapshot(&path).unwrap().to_matrix(), log.to_matrix());
            std::fs::remove_file(&path).ok();
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hnd-snap-test-{}-{tag}-{k}.snap",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_a_log() {
        let mut log = ResponseLog::new(4, 3, &[4, 2, 3]).unwrap();
        log.submit([
            (0, 0, Some(3)),
            (1, 2, Some(0)),
            (3, 1, Some(1)),
            (0, 0, Some(1)),
        ])
        .unwrap();
        let path = temp_path("rt");
        write_snapshot(&path, &log).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.version(), log.version());
        assert_eq!(back.to_matrix(), log.to_matrix());
        assert_eq!(back.options(), log.options());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corruption_without_panicking() {
        let mut log = ResponseLog::homogeneous(3, 3, 2).unwrap();
        log.set(1, 1, Some(1)).unwrap();
        let path = temp_path("bad");
        write_snapshot(&path, &log).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01; // flip one payload bit
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StoreError::Corrupt { .. })
        ));
        // Torn write: half the file.
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
