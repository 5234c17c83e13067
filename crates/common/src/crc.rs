//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
//!
//! The one checksum of the workspace: it frames the LSM engine's WAL
//! records and SSTable footers and the ledger's block frames, so torn
//! writes and bit rot are detected on recovery rather than silently
//! corrupting state or the chain.
//!
//! Slicing-by-8 folds eight input bytes per step through eight 256-entry
//! tables (8 KiB, built at compile time) instead of one byte per step
//! through one table; the checksum is the same, bit for bit.

/// Computes the CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental form: feed `state` from a previous call (start with
/// `0xFFFF_FFFF`, finish by XOR-ing with `0xFFFF_FFFF`).
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][i]` is the CRC
/// state after feeding byte `i` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            j += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time reference the sliced loop must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn standard_check_value() {
        // The canonical CRC-32 check: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_matches_bytewise_on_random_lengths_and_alignments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0c4c_3200);
        let buf: Vec<u8> = (0..4096 + 16).map(|_| rng.random::<u8>()).collect();
        for _ in 0..2000 {
            let start = rng.random_range(0..16usize);
            let len = rng.random_range(0..4097usize);
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
        }
        for len in 0..64 {
            for start in 0..8 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello world, this is a longer message";
        let oneshot = crc32(data);
        for step in [1, 3, 5, 8, 13] {
            let mut st = 0xFFFF_FFFF;
            for chunk in data.chunks(step) {
                st = crc32_update(st, chunk);
            }
            assert_eq!(st ^ 0xFFFF_FFFF, oneshot, "chunks of {step}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"payload bytes".to_vec();
        let before = crc32(&data);
        data[4] ^= 0x01;
        assert_ne!(crc32(&data), before);
    }
}
