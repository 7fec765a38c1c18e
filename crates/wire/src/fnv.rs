//! FNV-1a, 64-bit: the one non-cryptographic hash the workspace pins
//! digests, chain hashes and trace IDs with.

/// The FNV-1a 64-bit offset basis: the state of an empty hash.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a state `h` and return the new state.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a hash of `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(OFFSET_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
