//! The ledger's block-file frame: `[u32 len][u32 crc32(payload)][payload]`,
//! little-endian, with the payload being the [`CommittedBlock`] storage
//! encoding.

use fabric_common::codec::{Decode, Encode, Encoder};
use fabric_common::{crc32, Result};

use crate::block::CommittedBlock;

/// Bytes ahead of the payload: length, then crc.
pub(crate) const HEADER_LEN: usize = 8;

/// Length of the whole frame that starts with `header`.
pub(crate) fn frame_len(header: &[u8; HEADER_LEN]) -> u64 {
    HEADER_LEN as u64 + u64::from(u32::from_le_bytes(header[..4].try_into().unwrap()))
}

/// Encodes `cb` as one whole frame, ready to write in one call.
pub(crate) fn encode(cb: &CommittedBlock) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(HEADER_LEN + 128 + cb.block.byte_size());
    enc.put_u32(0).put_u32(0);
    cb.encode(&mut enc);
    let mut buf = enc.into_bytes();
    let len = (buf.len() - HEADER_LEN) as u32;
    let crc = crc32(&buf[HEADER_LEN..]);
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// One frame read off the front of a byte buffer; its crc is not yet
/// checked.
pub(crate) struct Frame<'a> {
    payload: &'a [u8],
    crc: u32,
}

impl<'a> Frame<'a> {
    /// Splits the frame at the front of `buf`; `None` when `buf` ends
    /// inside its header or its payload (a torn frame).
    pub(crate) fn split(buf: &'a [u8]) -> Option<Self> {
        let header = buf.get(..HEADER_LEN)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let payload = buf.get(HEADER_LEN..HEADER_LEN.checked_add(len)?)?;
        Some(Frame { payload, crc })
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
