//! Pre-decoded instruction streams for the cycle-accurate cores.
//!
//! The FPS checker's hot loop is `Soc::tick` → `Core::step`, and each
//! executed instruction used to pay a ROM fetch through the bus plus a
//! full [`decode`] of the same immutable word — every simulated cycle,
//! for hundreds of millions of cycles. A [`DecodeCache`] decodes the
//! whole ROM image once and serves `(word, Result<Instr, _>)` pairs by
//! pc, so the per-cycle cost collapses to one bounds-checked index.
//!
//! Caches are immutable and `Arc`-shared: a SoC snapshot (`Clone`)
//! shares its cache with the original, so the real SoC, the emulator's
//! dummy SoC, and every mutant run over an unchanged firmware image all
//! decode each ROM word exactly once per process. Sharing is keyed on the *image bytes* (plus base address)
//! via [`DecodeCache::shared`], so a tampered firmware gets its own
//! cache and can never observe the clean image's decode results.

use std::sync::{Arc, Mutex, OnceLock};

use crate::decode::{decode, DecodeError};
use crate::isa::Instr;

/// One ROM image, pre-decoded. Lookup never speculates: a pc outside
/// the image (or misaligned) is reported as uncovered and the core
/// falls back to its bus fetch + live decode, preserving the exact
/// uncached behavior (including bus faults).
pub struct DecodeCache {
    base: u32,
    /// The image this cache was built from, kept for exact identity
    /// comparison in the process-wide registry (hashes only pre-filter).
    image: Vec<u8>,
    hash: u64,
    entries: Vec<(u32, Result<Instr, DecodeError>)>,
}

impl DecodeCache {
    /// Pre-decode `image` as placed at `base`. Trailing bytes that do
    /// not fill a word are not covered (lookups there fall back).
    pub fn new(base: u32, image: &[u8]) -> DecodeCache {
        let entries = image
            .chunks_exact(4)
            .map(|c| {
                let w = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                (w, decode(w))
            })
            .collect();
        DecodeCache { base, image: image.to_vec(), hash: fnv1a(image), entries }
    }

    /// The `(word, decoded)` entry at `pc`, or `None` when the cache
    /// does not cover it (outside the image, or misaligned).
    #[inline]
    pub fn entry(&self, pc: u32) -> Option<&(u32, Result<Instr, DecodeError>)> {
        let off = pc.wrapping_sub(self.base);
        if off & 3 != 0 {
            return None;
        }
        self.entries.get((off >> 2) as usize)
    }

    /// Base address the image was placed at.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of pre-decoded words.
    pub fn words(&self) -> usize {
        self.entries.len()
    }

    /// The process-wide shared cache for `(base, image)`: built on
    /// first request, returned by `Arc` thereafter. Identity is the
    /// full image bytes — two firmwares differing in any byte get
    /// distinct caches — so mutation runs over tampered images can
    /// never alias the clean image's cache.
    pub fn shared(base: u32, image: &[u8]) -> Arc<DecodeCache> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<DecodeCache>>>> = OnceLock::new();
        /// Distinct images a process realistically holds (apps ×
        /// platforms × a few tampered variants); beyond this the
        /// registry is dropped wholesale rather than grown unboundedly.
        const MAX_SHARED: usize = 64;
        let hash = fnv1a(image);
        let mut reg = REGISTRY.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
        if let Some(c) = reg.iter().find(|c| c.hash == hash && c.base == base && c.image == image) {
            return Arc::clone(c);
        }
        if reg.len() >= MAX_SHARED {
            reg.clear();
        }
        let c = Arc::new(DecodeCache::new(base, image));
        reg.push(Arc::clone(&c));
        c
    }
}

/// FNV-1a over the image bytes: a cheap pre-filter for registry
/// lookups (full byte equality still decides).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::isa::Reg;

    fn image(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn entries_match_live_decode() {
        let words = [
            encode(Instr::OpImm { op: crate::isa::AluOp::Add, rd: Reg::A0, rs1: Reg::A1, imm: 7 }),
            0,           // illegal
            0xFFFF_FFFF, // illegal
            encode(Instr::Jal { rd: Reg::RA, off: -8 }),
        ];
        let cache = DecodeCache::new(0x100, &image(&words));
        assert_eq!(cache.words(), 4);
        for (i, &w) in words.iter().enumerate() {
            let (cw, instr) = cache.entry(0x100 + 4 * i as u32).unwrap();
            assert_eq!(*cw, w);
            assert_eq!(*instr, decode(w));
        }
    }

    #[test]
    fn uncovered_pcs_fall_back() {
        let cache = DecodeCache::new(0x100, &image(&[0x13])); // one word
        assert!(cache.entry(0x0FC).is_none(), "below base");
        assert!(cache.entry(0x104).is_none(), "past the image");
        assert!(cache.entry(0x102).is_none(), "misaligned");
        assert!(cache.entry(0x100).is_some());
    }

    #[test]
    fn shared_registry_dedupes_by_image_bytes() {
        let a = image(&[0x13, 0x6F]);
        let mut b = a.clone();
        b[0] ^= 1;
        let c1 = DecodeCache::shared(0, &a);
        let c2 = DecodeCache::shared(0, &a);
        let c3 = DecodeCache::shared(0, &b);
        assert!(Arc::ptr_eq(&c1, &c2), "same image shares one cache");
        assert!(!Arc::ptr_eq(&c1, &c3), "a tampered image gets its own cache");
    }

    #[test]
    fn trailing_partial_word_is_uncovered() {
        let mut img = image(&[0x13]);
        img.extend_from_slice(&[0xAA, 0xBB]); // 2 stray bytes
        let cache = DecodeCache::new(0, &img);
        assert_eq!(cache.words(), 1);
        assert!(cache.entry(4).is_none());
    }
}
