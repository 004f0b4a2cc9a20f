//! Word-addressed memories with taint tracking.

use crate::value::{Pair, Word, W};

/// A word-addressed memory of tainted 32-bit words (models RAM, FRAM, or
/// an initialized ROM block), holding one [`Word`] per address: a plain
/// [`W`] in a single world, a [`Pair`] in the FPS product world.
///
/// A memory stores the words it was given and no more: a ROM holds its
/// image's words, and every address past them inside the declared size
/// reads as an untainted zero.
#[derive(Clone)]
pub struct TaintMem<P: Word = W> {
    words: P::Store,
    /// Declared size in bytes (at least the stored words).
    bytes: usize,
    /// Whether writes are permitted (false for ROM).
    pub writable: bool,
}

impl<P: Word> TaintMem<P> {
    /// Size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.div_ceil(4) * 4
    }

    /// Lane `lane`'s stored words (past them the memory reads zero).
    pub fn lane(&self, lane: usize) -> &[W] {
        P::lane_words(&self.words, lane)
    }

    /// Bulk-load a byte image at a word-aligned offset with given taint,
    /// into every lane.
    pub fn load_bytes(&mut self, offset: usize, bytes: &[u8], taint: bool) {
        for lane in 0..P::LANES {
            self.load_lane(lane, offset, bytes, taint);
        }
    }

    /// Bulk-load a byte image at a word-aligned offset into one lane.
    pub fn load_lane(&mut self, lane: usize, offset: usize, bytes: &[u8], taint: bool) {
        assert_eq!(offset % 4, 0, "word-aligned offsets only");
        let words = P::lane_words_mut(&mut self.words, lane);
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let mut buf = [0u8; 4];
            buf[..chunk.len()].copy_from_slice(chunk);
            // Partial trailing chunk keeps existing upper bytes.
            let idx = offset / 4 + i;
            if chunk.len() < 4 {
                let old = words[idx].v.to_le_bytes();
                buf[chunk.len()..].copy_from_slice(&old[chunk.len()..]);
            }
            words[idx] = W { v: u32::from_le_bytes(buf), t: taint };
        }
    }

    /// Dump `len` bytes of lane 0 starting at a word-aligned offset
    /// (values only).
    pub fn dump_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.dump_lane(0, offset, len)
    }

    /// Dump `len` bytes of one lane starting at a word-aligned offset
    /// (values only).
    pub fn dump_lane(&self, lane: usize, offset: usize, len: usize) -> Vec<u8> {
        assert_eq!(offset % 4, 0);
        let words = self.lane(lane);
        (offset..offset + len)
            .map(|b| {
                let v = words.get(b / 4).map_or(0, |w| w.v);
                (v >> (8 * (b % 4))) as u8
            })
            .collect()
    }

    /// Read the word containing byte offset `off` (must be in range).
    #[inline]
    pub fn read_word(&self, off: u32) -> P {
        let idx = (off / 4) as usize;
        if idx < self.lane(0).len() {
            P::get(&self.words, idx)
        } else {
            debug_assert!((off as usize) < self.len_bytes(), "read past the memory");
            P::default()
        }
    }

    /// Write a word with a byte-lane mask (bit i of `mask` enables byte i).
    #[inline]
    pub fn write_word(&mut self, off: u32, val: P, mask: u8) {
        if !self.writable {
            return;
        }
        let idx = (off / 4) as usize;
        if mask == 0xF {
            P::put(&mut self.words, idx, val);
            return;
        }
        let old = P::get(&self.words, idx);
        let merged = old.zip_lanes(val, |old, val| {
            let mut v = old.v;
            for lane in 0..4 {
                if mask & (1 << lane) != 0 {
                    let sh = 8 * lane;
                    v = (v & !(0xFF << sh)) | (val.v & (0xFF << sh));
                }
            }
            // A partial write mixes old and new data: join taints.
            W { v, t: old.t || val.t }
        });
        P::put(&mut self.words, idx, merged);
    }

    /// Whether any word of any lane in the given byte range is tainted.
    pub fn any_tainted(&self, offset: usize, len: usize) -> bool {
        (0..P::LANES)
            .any(|l| self.lane(l)[offset / 4..(offset + len).div_ceil(4)].iter().any(|w| w.t))
    }

    /// Set the taint of a byte range (word granularity), in every lane.
    pub fn set_taint(&mut self, offset: usize, len: usize, taint: bool) {
        for l in 0..P::LANES {
            for w in
                &mut P::lane_words_mut(&mut self.words, l)[offset / 4..(offset + len).div_ceil(4)]
            {
                w.t = taint;
            }
        }
    }
}

impl TaintMem {
    /// A zeroed writable memory with space for `bytes` bytes.
    pub fn new(bytes: usize) -> TaintMem {
        TaintMem { words: vec![W::default(); bytes.div_ceil(4)], bytes, writable: true }
    }

    /// A read-only memory initialized from a byte image (untainted). It
    /// stores the image's words only; the rest of its `bytes` reads as
    /// untainted zero.
    pub fn rom(image: &[u8], bytes: usize) -> TaintMem {
        let words = vec![W::default(); image.len().div_ceil(4)];
        let mut m = TaintMem { words, bytes: bytes.max(image.len()), writable: false };
        m.load_lane(0, 0, image, false);
        m
    }
}

impl TaintMem<Pair> {
    /// Two worlds' memories of one shape as one product memory (real in
    /// lane 0), moving their arrays.
    pub fn zip(real: TaintMem, ideal: TaintMem) -> TaintMem<Pair> {
        let shape = |m: &TaintMem| (m.bytes, m.writable, m.words.len());
        assert_eq!(shape(&real), shape(&ideal), "zipped memories have one shape");
        TaintMem { bytes: real.bytes, writable: real.writable, words: [real.words, ideal.words] }
    }

    /// The (real, ideal) memories this product memory holds.
    pub fn unzip(self) -> (TaintMem, TaintMem) {
        let [real, ideal] = self.words;
        let half = |words| TaintMem { words, bytes: self.bytes, writable: self.writable };
        (half(real), half(ideal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_dump_roundtrip() {
        let mut m = TaintMem::new(64);
        m.load_bytes(8, &[1, 2, 3, 4, 5], false);
        assert_eq!(m.dump_bytes(8, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(m.dump_bytes(12, 4), vec![5, 0, 0, 0]);
    }

    #[test]
    fn byte_lane_writes() {
        let mut m = TaintMem::new(16);
        m.write_word(0, W::pub32(0xAABBCCDD), 0xF);
        m.write_word(0, W::pub32(0x0000_0011), 0x1);
        assert_eq!(m.read_word(0).v, 0xAABBCC11);
        m.write_word(0, W::pub32(0x2200_0000), 0x8);
        assert_eq!(m.read_word(0).v, 0x22BBCC11);
    }

    #[test]
    fn rom_ignores_writes() {
        let mut m = TaintMem::rom(&[1, 2, 3, 4], 16);
        m.write_word(0, W::pub32(0xFFFF_FFFF), 0xF);
        assert_eq!(m.read_word(0).v, 0x04030201);
    }

    #[test]
    fn rom_stores_its_image_and_reads_zero_past_it() {
        let mut m = TaintMem::rom(&[1, 2, 3, 4, 5], 1 << 18);
        assert_eq!(m.lane(0).len(), 2, "two words of image, not 64 Ki");
        assert_eq!(m.len_bytes(), 1 << 18);
        assert_eq!(m.read_word(4), W::pub32(5));
        assert_eq!(m.read_word(8), W::pub32(0));
        assert_eq!(m.read_word((1 << 18) - 4), W::pub32(0));
        m.write_word((1 << 18) - 4, W::secret(7), 0xF);
        assert_eq!(m.read_word((1 << 18) - 4), W::pub32(0));
        assert_eq!(m.dump_bytes(4, 8), vec![5, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn zipped_memories_write_per_lane_and_unzip_intact() {
        let mut real = TaintMem::new(16);
        real.load_bytes(0, &[1, 2, 3, 4], true);
        let ideal = TaintMem::new(16);
        let mut p = TaintMem::zip(real, ideal);
        let w = p.read_word(0);
        assert_eq!((w.real, w.ideal), (W::secret(0x04030201), W::pub32(0)));
        p.write_word(0, Pair { real: W::pub32(0xAA), ideal: W::pub32(0xBB) }, 0x1);
        p.load_lane(1, 4, &[9], false);
        let (real, ideal) = p.unzip();
        assert_eq!(real.read_word(0), W::secret(0x040302AA));
        assert_eq!(ideal.read_word(0), W::pub32(0xBB));
        assert_eq!(ideal.dump_bytes(4, 1), vec![9]);
    }

    #[test]
    fn taint_on_partial_write_joins() {
        let mut m = TaintMem::new(16);
        m.write_word(0, W::secret(0xFFFF_FFFF), 0xF);
        m.write_word(0, W::pub32(0x11), 0x1);
        assert!(m.read_word(0).t, "old secret bytes remain in the word");
        m.write_word(0, W::pub32(0), 0xF);
        assert!(!m.read_word(0).t);
    }

    #[test]
    fn taint_ranges() {
        let mut m = TaintMem::new(64);
        m.set_taint(16, 8, true);
        assert!(m.any_tainted(16, 8));
        assert!(!m.any_tainted(0, 16));
        assert!(m.any_tainted(20, 4));
        m.set_taint(16, 8, false);
        assert!(!m.any_tainted(0, 64));
    }
}
