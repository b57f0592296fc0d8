//! The WAL frame codec: length-prefixed, CRC-checked records.
//!
//! A WAL file is the 8-byte magic [`WAL_MAGIC`] followed by a sequence of
//! frames, each laid out as
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload…]
//! ```
//!
//! (all integers little-endian). The payload's first byte is a kind tag:
//!
//! * **Header** (`kind = 1`): roster metadata + the version the first edit
//!   frame chains onto — `[u8 1][u8 format][u64 n_users][u64 n_items]`
//!   `[u64 base_version][u32 n_options][u32 × n_options]`. Always the
//!   first frame; rewritten (with a fresh `base_version`) when the WAL is
//!   rotated after a snapshot rebase.
//! * **Edits** (`kind = 2`): one committed batch —
//!   `[u8 2][u64 from_version][u32 count][(u32 user, u32 item, u32 from,`
//!   `u32 to) × count]` where `0xFFFF_FFFF` encodes `None` (unanswered).
//!   Edit `i` of the batch takes the log from `from_version + i` to
//!   `from_version + i + 1`, so contiguity is checkable frame by frame.
//!
//! The scanner ([`scan`]) walks a buffer until it runs out of bytes or
//! hits damage, classifying the damage ([`DamageKind`]) and reporting the
//! byte offset of the last valid frame boundary so recovery can truncate
//! to it — a torn tail never poisons the valid prefix.

use hnd_response::ResponseEdit;

/// File magic of a per-session WAL.
pub const WAL_MAGIC: [u8; 8] = *b"HNDWAL01";
/// On-disk format version carried in header frames.
pub const FORMAT_VERSION: u8 = 1;
/// `Option<u16>` encoding: `None` as an out-of-`u16` sentinel.
const NONE_CELL: u32 = 0xFFFF_FFFF;
/// Frames beyond this are garbage lengths, not real payloads (a torn
/// length word would otherwise make the scanner wait for gigabytes).
const MAX_PAYLOAD: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// every frame and snapshot body.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

/// Incremental [`crc32`]: feeding a byte string in any split yields the
/// checksum of the whole, so a body can be checksummed while it streams
/// to disk. Table-driven; the table is built once at first use. The
/// default value is the checksum of the empty string.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32 {
    /// The checksum so far (the register, complemented).
    crc: u32,
}

impl Crc32 {
    /// Extends the checksummed string by `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut table = [0u32; 256];
            for (i, slot) in table.iter_mut().enumerate() {
                let mut crc = i as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
                *slot = crc;
            }
            table
        });
        let mut reg = !self.crc;
        for &b in bytes {
            reg = (reg >> 8) ^ table[((reg ^ u32::from(b)) & 0xFF) as usize];
        }
        self.crc = !reg;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.crc
    }
}

/// How a WAL tail was found damaged (crash mid-write, bit rot, torn
/// sector). Recovery truncates to the last valid frame and counts the
/// damage — it never panics and never silently keeps bad bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageKind {
    /// The tail is zero bytes where a frame should start (a preallocated
    /// or partially-flushed region that never received its length word).
    ZeroLengthTail,
    /// The length word promises more bytes than the file holds (the
    /// classic torn final frame), or the length itself is garbage.
    TornFrame,
    /// The payload is complete but its checksum disagrees — flipped bits
    /// in the CRC word or the payload.
    CrcMismatch,
    /// The checksum passed but the payload doesn't parse, or an edit
    /// frame doesn't chain onto its predecessor's version.
    Malformed,
}

/// One decoded frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Roster metadata + the version the edit stream starts at.
    Header {
        /// On-disk format version (see [`FORMAT_VERSION`]).
        format: u8,
        /// Users in the roster.
        n_users: u64,
        /// Items in the roster.
        n_items: u64,
        /// Version the first edit frame chains onto.
        base_version: u64,
        /// Options per item.
        options: Vec<u16>,
    },
    /// One committed edit batch chaining onto `from_version`.
    Edits {
        /// Log version before the batch's first edit.
        from_version: u64,
        /// The batch, in commit order.
        edits: Vec<ResponseEdit>,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn cell_to_u32(c: Option<u16>) -> u32 {
    c.map_or(NONE_CELL, u32::from)
}

fn u32_to_cell(v: u32) -> Option<Option<u16>> {
    if v == NONE_CELL {
        Some(None)
    } else {
        u16::try_from(v).ok().map(Some)
    }
}

/// Encodes a header payload (no frame envelope).
pub fn encode_header(n_users: u64, n_items: u64, base_version: u64, options: &[u16]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + 8 * 3 + 4 + 4 * options.len());
    buf.push(1u8);
    buf.push(FORMAT_VERSION);
    put_u64(&mut buf, n_users);
    put_u64(&mut buf, n_items);
    put_u64(&mut buf, base_version);
    put_u32(&mut buf, options.len() as u32);
    for &k in options {
        put_u32(&mut buf, u32::from(k));
    }
    buf
}

/// Encodes an edits payload (no frame envelope).
pub fn encode_edits(from_version: u64, edits: &[ResponseEdit]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + 8 + 4 + 16 * edits.len());
    buf.push(2u8);
    put_u64(&mut buf, from_version);
    put_u32(&mut buf, edits.len() as u32);
    for e in edits {
        put_u32(&mut buf, e.user as u32);
        put_u32(&mut buf, e.item as u32);
        put_u32(&mut buf, cell_to_u32(e.from));
        put_u32(&mut buf, cell_to_u32(e.to));
    }
    buf
}

/// Wraps a payload in the `[len][crc][payload]` envelope.
pub fn envelope(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    put_u32(&mut buf, payload.len() as u32);
    put_u32(&mut buf, crc32(payload));
    buf.extend_from_slice(payload);
    buf
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

fn decode_payload(payload: &[u8]) -> Option<Frame> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let frame = match c.u8()? {
        1 => {
            let format = c.u8()?;
            let n_users = c.u64()?;
            let n_items = c.u64()?;
            let base_version = c.u64()?;
            let n_options = c.u32()? as usize;
            let mut options = Vec::with_capacity(n_options);
            for _ in 0..n_options {
                options.push(u16::try_from(c.u32()?).ok()?);
            }
            Frame::Header {
                format,
                n_users,
                n_items,
                base_version,
                options,
            }
        }
        2 => {
            let from_version = c.u64()?;
            let count = c.u32()? as usize;
            let mut edits = Vec::with_capacity(count);
            for _ in 0..count {
                edits.push(ResponseEdit {
                    user: c.u32()? as usize,
                    item: c.u32()? as usize,
                    from: u32_to_cell(c.u32()?)?,
                    to: u32_to_cell(c.u32()?)?,
                });
            }
            Frame::Edits {
                from_version,
                edits,
            }
        }
        _ => return None,
    };
    (c.pos == payload.len()).then_some(frame)
}

/// The result of scanning a WAL buffer (everything after the magic).
#[derive(Debug)]
pub struct Scan {
    /// Valid frames in file order, each with the byte offset it starts at
    /// (so semantic validation above the codec — e.g. a version-chain
    /// check — can truncate to any frame boundary, not just the last).
    pub frames: Vec<(u64, Frame)>,
    /// Byte length of the valid prefix **including the magic** — the
    /// offset recovery truncates the file to when `damage` is set.
    pub valid_len: u64,
    /// How the tail was damaged, if it was.
    pub damage: Option<DamageKind>,
}

/// Scans a full WAL file image (magic + frames), stopping at the first
/// damaged byte. A missing/garbled magic is [`DamageKind::Malformed`]
/// damage with zero valid frames.
pub fn scan(file: &[u8]) -> Scan {
    if file.len() < WAL_MAGIC.len() || file[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Scan {
            frames: Vec::new(),
            valid_len: 0,
            damage: Some(if file.iter().all(|&b| b == 0) {
                DamageKind::ZeroLengthTail
            } else {
                DamageKind::Malformed
            }),
        };
    }
    let mut frames = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let damage = loop {
        let rem = &file[pos..];
        if rem.is_empty() {
            break None;
        }
        if rem.iter().all(|&b| b == 0) {
            break Some(DamageKind::ZeroLengthTail);
        }
        if rem.len() < 8 {
            break Some(DamageKind::TornFrame);
        }
        let len = u32::from_le_bytes(rem[..4].try_into().unwrap());
        if len == 0 {
            break Some(DamageKind::ZeroLengthTail);
        }
        if len > MAX_PAYLOAD || rem.len() < 8 + len as usize {
            break Some(DamageKind::TornFrame);
        }
        let crc = u32::from_le_bytes(rem[4..8].try_into().unwrap());
        let payload = &rem[8..8 + len as usize];
        if crc32(payload) != crc {
            break Some(DamageKind::CrcMismatch);
        }
        let Some(frame) = decode_payload(payload) else {
            break Some(DamageKind::Malformed);
        };
        frames.push((pos as u64, frame));
        pos += 8 + len as usize;
    };
    Scan {
        frames,
        valid_len: pos as u64,
        damage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit(user: usize, item: usize, from: Option<u16>, to: Option<u16>) -> ResponseEdit {
        ResponseEdit {
            user,
            item,
            from,
            to,
        }
    }

    fn sample_file() -> Vec<u8> {
        let mut file = WAL_MAGIC.to_vec();
        file.extend(envelope(&encode_header(3, 2, 5, &[4, 3])));
        file.extend(envelope(&encode_edits(
            5,
            &[edit(0, 0, None, Some(2)), edit(1, 1, Some(1), None)],
        )));
        file.extend(envelope(&encode_edits(7, &[edit(2, 0, None, Some(0))])));
        file
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut split = Crc32::default();
        split.update(b"1234");
        split.update(b"");
        split.update(b"56789");
        assert_eq!(split.finish(), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_frames() {
        let scan = scan(&sample_file());
        assert!(scan.damage.is_none());
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(
            scan.frames[0],
            (
                WAL_MAGIC.len() as u64,
                Frame::Header {
                    format: FORMAT_VERSION,
                    n_users: 3,
                    n_items: 2,
                    base_version: 5,
                    options: vec![4, 3],
                }
            )
        );
        let (
            _,
            Frame::Edits {
                from_version,
                ref edits,
            },
        ) = scan.frames[1]
        else {
            panic!("expected edits frame");
        };
        assert_eq!(from_version, 5);
        assert_eq!(edits[0], edit(0, 0, None, Some(2)));
        assert_eq!(edits[1].to, None, "None survives the sentinel encoding");
        assert_eq!(scan.valid_len, sample_file().len() as u64);
    }

    #[test]
    fn classifies_damage_and_keeps_the_valid_prefix() {
        let good = sample_file();

        // Torn final frame: drop the last 3 bytes.
        let torn = &good[..good.len() - 3];
        let s = scan(torn);
        assert_eq!(s.damage, Some(DamageKind::TornFrame));
        assert_eq!(s.frames.len(), 2, "prefix survives");

        // Flipped CRC byte on the final frame.
        let mut flipped = good.clone();
        let final_frame_start = good.len() - (8 + 1 + 8 + 4 + 16);
        flipped[final_frame_start + 4] ^= 0xFF;
        let s = scan(&flipped);
        assert_eq!(s.damage, Some(DamageKind::CrcMismatch));
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.valid_len, final_frame_start as u64);

        // Zero-length tail: trailing zeros after the last frame.
        let mut zeroed = good.clone();
        zeroed.extend([0u8; 12]);
        let s = scan(&zeroed);
        assert_eq!(s.damage, Some(DamageKind::ZeroLengthTail));
        assert_eq!(s.frames.len(), 3, "all real frames kept");
        assert_eq!(s.valid_len, good.len() as u64);

        // Garbage magic.
        let s = scan(b"NOTAWAL!rest");
        assert_eq!(s.damage, Some(DamageKind::Malformed));
        assert!(s.frames.is_empty());
    }
}
