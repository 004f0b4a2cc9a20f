//! A small synchronous FIFO with taint-carrying entries.

use std::collections::VecDeque;

use crate::value::{Pair, Word, W};

/// A bounded FIFO of tainted bytes (stored as words; one [`Word`] per
/// entry, so the product world's FIFO has one occupancy and paired
/// data).
#[derive(Clone)]
pub struct Fifo<P: Word = W> {
    q: VecDeque<P>,
    cap: usize,
    hwm: usize,
}

impl<P: Word> Fifo<P> {
    /// An empty FIFO with capacity `cap`.
    pub fn new(cap: usize) -> Self {
        Fifo { q: VecDeque::with_capacity(cap), cap, hwm: 0 }
    }

    /// Whether a push would be accepted.
    pub fn can_push(&self) -> bool {
        self.q.len() < self.cap
    }

    /// Whether a pop would succeed.
    pub fn can_pop(&self) -> bool {
        !self.q.is_empty()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Push; returns false when full.
    pub fn push(&mut self, w: P) -> bool {
        if self.can_push() {
            self.q.push_back(w);
            self.hwm = self.hwm.max(self.q.len());
            true
        } else {
            false
        }
    }

    /// Highest occupancy ever reached (for sizing/telemetry).
    pub fn high_water(&self) -> usize {
        self.hwm
    }

    /// Pop the oldest entry.
    pub fn pop(&mut self) -> Option<P> {
        self.q.pop_front()
    }

    /// Peek at the oldest entry without removing it.
    pub fn peek(&self) -> Option<P> {
        self.q.front().copied()
    }

    /// The entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = P> + '_ {
        self.q.iter().copied()
    }
}

impl Fifo<Pair> {
    /// Two worlds' FIFOs as one product FIFO, or `None` when their
    /// occupancy, capacity or high-water mark differ.
    pub fn zip(real: &Fifo, ideal: &Fifo) -> Option<Fifo<Pair>> {
        if (real.q.len(), real.cap, real.hwm) != (ideal.q.len(), ideal.cap, ideal.hwm) {
            return None;
        }
        let q = real.q.iter().zip(&ideal.q).map(|(&real, &ideal)| Pair { real, ideal }).collect();
        Some(Fifo { q, cap: real.cap, hwm: real.hwm })
    }

    /// The (real, ideal) FIFOs this product FIFO holds.
    pub fn unzip(&self) -> (Fifo, Fifo) {
        let half = |lane| Fifo {
            q: self.q.iter().map(|p| p.lane(lane)).collect(),
            cap: self.cap,
            hwm: self.hwm,
        };
        (half(0), half(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let mut f = Fifo::new(2);
        assert!(f.push(W::pub32(1)));
        assert!(f.push(W::pub32(2)));
        assert!(!f.push(W::pub32(3)), "full");
        assert_eq!(f.pop().unwrap().v, 1);
        assert_eq!(f.peek().unwrap().v, 2);
        assert_eq!(f.pop().unwrap().v, 2);
        assert!(f.pop().is_none());
    }

    #[test]
    fn high_water_persists_across_drain() {
        let mut f = Fifo::new(4);
        assert_eq!(f.high_water(), 0);
        f.push(W::pub32(1));
        f.push(W::pub32(2));
        f.push(W::pub32(3));
        f.pop();
        f.pop();
        f.pop();
        assert!(f.is_empty());
        assert_eq!(f.high_water(), 3, "mark survives the drain");
        f.push(W::pub32(4));
        assert_eq!(f.high_water(), 3, "refilling below the mark keeps it");
    }
}
