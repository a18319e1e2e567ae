//! CRC-32 (IEEE 802.3, the polynomial used by zip/gzip/PNG), implemented
//! here because the build environment is offline. Each container section
//! carries the CRC of its payload so bit rot is detected before a single
//! field is trusted.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, built once at first use.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        table
    })
}

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = table();
    let mut state = !0u32;
    for &byte in bytes {
        state = (state >> 8) ^ table[((state ^ byte as u32) & 0xFF) as usize];
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let baseline = crc32(b"bclean");
        let mut flipped = b"bclean".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(crc32(&flipped), baseline);
    }
}
