//! CRC-32 (IEEE 802.3, the zlib/`cksum -o3` polynomial), table-driven.
//!
//! Every frame the store writes carries the CRC of its payload; recovery
//! distinguishes "the crash cut this frame short" (torn: truncate and
//! continue) from "these bytes were silently damaged" (corrupt: fail
//! loudly), and the checksum is what makes the second case detectable.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight input
/// bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (IEEE, reflected, init/final xor `0xffff_ffff`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The one-byte-at-a-time definition the sliced loop must match.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=67 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let payload = b"nemo-wal record payload".to_vec();
        let base = crc32(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    base,
                    "flip at byte {byte} bit {bit} undetected"
                );
            }
        }
    }
}
