//! Tainted 32-bit words, alone or paired across two worlds.

use std::fmt::Debug;
use std::ops;

/// A 32-bit hardware word carrying a taint bit.
///
/// Taint marks data derived from HSM secrets (the persistent state).
/// Taint propagates through every data operation; it stands in for the
/// symbolic variables Knox2 would track. A word-granularity bit is a
/// sound over-approximation of bit-level flows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct W {
    /// The value.
    pub v: u32,
    /// Whether the value (possibly) depends on secret data.
    pub t: bool,
}

impl W {
    /// An untainted (public) word.
    pub fn pub32(v: u32) -> W {
        W { v, t: false }
    }

    /// A tainted (secret-derived) word.
    pub fn secret(v: u32) -> W {
        W { v, t: true }
    }

    /// Apply a binary operation, joining taints.
    pub fn bin(self, other: W, f: impl Fn(u32, u32) -> u32) -> W {
        W { v: f(self.v, other.v), t: self.t || other.t }
    }

    /// Apply a unary operation, preserving taint.
    pub fn map(self, f: impl Fn(u32) -> u32) -> W {
        W { v: f(self.v), t: self.t }
    }
}

impl ops::BitAnd for W {
    type Output = W;
    fn bitand(self, rhs: W) -> W {
        self.bin(rhs, |a, b| a & b)
    }
}

impl ops::BitOr for W {
    type Output = W;
    fn bitor(self, rhs: W) -> W {
        self.bin(rhs, |a, b| a | b)
    }
}

impl ops::BitXor for W {
    type Output = W;
    fn bitxor(self, rhs: W) -> W {
        self.bin(rhs, |a, b| a ^ b)
    }
}

impl ops::Add for W {
    type Output = W;
    fn add(self, rhs: W) -> W {
        self.bin(rhs, u32::wrapping_add)
    }
}

impl ops::Sub for W {
    type Output = W;
    fn sub(self, rhs: W) -> W {
        self.bin(rhs, u32::wrapping_sub)
    }
}

/// The data word of a simulated world: one [`W`] per world ("lane").
///
/// A single world stores plain [`W`]s. The FPS checker's product world
/// stores a [`Pair`]: the real world's word in lane 0 and the ideal
/// world's in lane 1, each with its own taint, so one circuit steps
/// both worlds' control once while every datum stays per world.
/// Hardware built over `Word` (memories, FIFOs, cores, the SoC) is one
/// implementation for both.
pub trait Word: Copy + Default + PartialEq + Eq + Debug + 'static {
    /// Worlds per word: 1 for [`W`], 2 for [`Pair`].
    const LANES: usize;
    /// A memory's backing store: one array of [`W`] per lane, so two
    /// worlds' memories zip and unzip by moving arrays, not words.
    type Store: Clone;

    /// Lane `i`'s word (lane 0 is the real world).
    fn lane(self, i: usize) -> W;
    /// The word whose lane `i` is `f(i)`.
    fn from_lanes(f: impl Fn(usize) -> W) -> Self;
    /// Lane `lane`'s words.
    fn lane_words(store: &Self::Store, lane: usize) -> &[W];
    /// Lane `lane`'s words, mutably.
    fn lane_words_mut(store: &mut Self::Store, lane: usize) -> &mut [W];

    /// `w` in every lane.
    #[inline]
    fn splat(w: W) -> Self {
        Self::from_lanes(|_| w)
    }
    /// Apply `f` to each lane.
    #[inline]
    fn map_lanes(self, f: impl Fn(W) -> W) -> Self {
        Self::from_lanes(|i| f(self.lane(i)))
    }
    /// Combine two words lane by lane.
    #[inline]
    fn zip_lanes(self, other: Self, f: impl Fn(W, W) -> W) -> Self {
        Self::from_lanes(|i| f(self.lane(i), other.lane(i)))
    }
    /// Bit `i` is set iff lane `i` is tainted.
    #[inline]
    fn taint_lanes(self) -> u8 {
        (0..Self::LANES).fold(0, |m, i| m | (self.lane(i).t as u8) << i)
    }
    /// Whether every lane holds the same value (taints may differ).
    #[inline]
    fn values_agree(self) -> bool {
        (1..Self::LANES).all(|i| self.lane(i).v == self.lane(0).v)
    }
    /// The word at index `i` of a store (in range).
    #[inline]
    fn get(store: &Self::Store, i: usize) -> Self {
        Self::from_lanes(|lane| Self::lane_words(store, lane)[i])
    }
    /// Overwrite the word at index `i` of a store (in range).
    #[inline]
    fn put(store: &mut Self::Store, i: usize, w: Self) {
        for lane in 0..Self::LANES {
            Self::lane_words_mut(store, lane)[i] = w.lane(lane);
        }
    }
}

impl Word for W {
    const LANES: usize = 1;
    type Store = Vec<W>;

    #[inline]
    fn lane(self, _: usize) -> W {
        self
    }
    #[inline]
    fn from_lanes(f: impl Fn(usize) -> W) -> W {
        f(0)
    }
    #[inline]
    fn lane_words(store: &Vec<W>, _: usize) -> &[W] {
        store
    }
    #[inline]
    fn lane_words_mut(store: &mut Vec<W>, _: usize) -> &mut [W] {
        store
    }
}

/// The real (lane 0) and ideal (lane 1) worlds' words at one location
/// of the product world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pair {
    /// The real world's word.
    pub real: W,
    /// The ideal world's word.
    pub ideal: W,
}

impl Word for Pair {
    const LANES: usize = 2;
    type Store = [Vec<W>; 2];

    #[inline]
    fn lane(self, i: usize) -> W {
        if i == 0 {
            self.real
        } else {
            self.ideal
        }
    }
    #[inline]
    fn from_lanes(f: impl Fn(usize) -> W) -> Pair {
        Pair { real: f(0), ideal: f(1) }
    }
    #[inline]
    fn lane_words(store: &[Vec<W>; 2], lane: usize) -> &[W] {
        &store[lane]
    }
    #[inline]
    fn lane_words_mut(store: &mut [Vec<W>; 2], lane: usize) -> &mut [W] {
        &mut store[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_lanes_keep_their_own_taint() {
        let p = Pair { real: W::secret(3), ideal: W::pub32(3) };
        assert!(p.values_agree());
        assert_eq!(p.taint_lanes(), 0b01);
        let q = p.zip_lanes(Pair::splat(W::pub32(4)), |a, b| a + b);
        assert_eq!((q.real, q.ideal), (W::secret(7), W::pub32(7)));
        assert!(!p.map_lanes(|w| W { v: w.v + w.t as u32, t: w.t }).values_agree());
    }

    #[test]
    fn taint_propagates() {
        let a = W::secret(1);
        let b = W::pub32(2);
        assert!((a + b).t);
        assert!(!(b + b).t);
        assert_eq!((a + b).v, 3);
        assert!((a ^ a).t, "taint is syntactic, not semantic");
    }

    #[test]
    fn map_keeps_taint() {
        assert!(W::secret(4).map(|x| x << 1).t);
        assert_eq!(W::pub32(4).map(|x| x << 1).v, 8);
    }
}
