//! The ledger's block-file frame:
//! `[u32 len][u32 crc32(payload)][u32 crc32(len, payload crc)][payload]`,
//! little-endian, with the payload being the [`CommittedBlock`] storage
//! encoding. The header carries a crc of its own, so a damaged length is
//! told apart from a frame that a crash cut short.

use fabric_common::codec::{Decode, Encode, Encoder};
use fabric_common::{crc32, Result};

use crate::block::CommittedBlock;

/// Bytes ahead of the payload: length, payload crc, then the crc of
/// those two.
pub(crate) const HEADER_LEN: usize = 12;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Length of the whole frame that starts with `header`, or `None` when the
/// header fails its own crc.
pub(crate) fn frame_len(header: &[u8; HEADER_LEN]) -> Option<u64> {
    (crc32(&header[..8]) == u32_at(header, 8))
        .then(|| HEADER_LEN as u64 + u64::from(u32_at(header, 0)))
}

/// Encodes `cb` as one whole frame, ready to write in one call.
pub(crate) fn encode(cb: &CommittedBlock) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(HEADER_LEN + 128 + cb.block.byte_size());
    enc.put_u32(0).put_u32(0).put_u32(0);
    cb.encode(&mut enc);
    let mut buf = enc.into_bytes();
    let len = (buf.len() - HEADER_LEN) as u32;
    let crc = crc32(&buf[HEADER_LEN..]);
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    let header_crc = crc32(&buf[..8]);
    buf[8..HEADER_LEN].copy_from_slice(&header_crc.to_le_bytes());
    buf
}

/// One frame read off the front of a byte buffer; its header crc is
/// checked, its payload crc not yet.
pub(crate) struct Frame<'a> {
    payload: &'a [u8],
    crc: u32,
}

impl<'a> Frame<'a> {
    /// Splits the frame at the front of `buf`; `None` when its header
    /// fails its crc, or `buf` ends inside its header or its payload.
    pub(crate) fn split(buf: &'a [u8]) -> Option<Self> {
        let header = buf.get(..HEADER_LEN)?.try_into().unwrap();
        let len = usize::try_from(frame_len(header)?).ok()?;
        Some(Frame { payload: buf.get(HEADER_LEN..len)?, crc: u32_at(header, 4) })
    }

    /// Header plus payload bytes.
    pub(crate) fn len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Whether the payload matches its recorded crc.
    pub(crate) fn crc_ok(&self) -> bool {
        crc32(self.payload) == self.crc
    }

    /// Decodes the payload (the crc is the caller's to check first).
    pub(crate) fn decode(&self) -> Result<CommittedBlock> {
        CommittedBlock::decode_exact(self.payload)
    }
}
