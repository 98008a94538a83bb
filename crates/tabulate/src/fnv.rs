//! The workspace's one content-address hash: 64-bit FNV-1a.
//!
//! Marginal and flow content digests, filter ids, dataset digests, truth
//! seals and released-body digests all fold through [`Fnv1a`]. A digest
//! only ever *names* things; every store that uses one re-verifies the
//! full key structurally on load.

/// A running 64-bit FNV-1a hash. Its methods are `#[inline]`: digests
/// fold one word at a time from other crates over whole datasets, and a
/// call per word would dominate the hash.
///
/// ```
/// use tabulate::Fnv1a;
///
/// let mut hash = Fnv1a::new();
/// hash.bytes(b"a");
/// assert_eq!(hash.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a offset basis: the hash of no bytes.
    #[inline]
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes`, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold `word` as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}
