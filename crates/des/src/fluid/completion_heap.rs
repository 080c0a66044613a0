//! Indexed binary min-heap of projected completion times.
//!
//! Members are slab slots ordered by `(slot.proj, slot)`; the key itself
//! stays in the slot (the solver writes it, the heap only reads it), so every
//! method that compares or stores a key is handed the slab. `pos` is the
//! inverse of `heap`, which is what makes `set`/`remove` of an arbitrary slot
//! O(log n). Slots whose projection is infinite (zero-rate activities) are
//! never members.
//!
//! `(proj, slot)` is a strict total order, so what `peek` returns — and the
//! order in which repeated `peek` + `remove` drain the heap — depends only on
//! the member set and its keys, never on the array layout. That is what lets
//! a re-rating of many members skip the per-element sifts: write the keys in
//! place ([`CompletionHeap::write_unsifted`]) and restore the heap property
//! once ([`CompletionHeap::rebuild`]). The layout differs from what the same
//! updates through [`CompletionHeap::set`] would leave; nothing observable
//! does.

use super::ActivitySlot;

/// Sentinel for "not in the completion heap".
const NO_POS: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
pub(super) struct CompletionHeap {
    /// Member slots in heap order.
    heap: Vec<u32>,
    /// Slot -> index into `heap` (`NO_POS` = not a member).
    pos: Vec<u32>,
}

impl CompletionHeap {
    /// Registers one more slab slot (not a member).
    pub(super) fn push_slot(&mut self) {
        self.pos.push(NO_POS);
    }

    /// Number of members.
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(super) fn contains(&self, u: u32) -> bool {
        self.pos[u as usize] != NO_POS
    }

    /// The member with the smallest `(proj, slot)`.
    pub(super) fn peek(&self) -> Option<u32> {
        self.heap.first().copied()
    }

    /// True when slot `a` orders before slot `b`: lexicographic on
    /// `(projection, slot)` — the slot tie-break keeps pops deterministic.
    #[inline]
    fn less(slots: &[ActivitySlot], a: u32, b: u32) -> bool {
        let pa = slots[a as usize].proj;
        let pb = slots[b as usize].proj;
        match pa.partial_cmp(&pb) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => a < b,
        }
    }

    /// Swaps two heap entries, keeping `pos` the inverse of `heap`.
    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }

    fn sift_up(&mut self, slots: &[ActivitySlot], mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(slots, self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        i
    }

    fn sift_down(&mut self, slots: &[ActivitySlot], mut i: usize) {
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let mut smallest = i;
            if left < self.heap.len() && Self::less(slots, self.heap[left], self.heap[smallest]) {
                smallest = left;
            }
            if right < self.heap.len() && Self::less(slots, self.heap[right], self.heap[smallest]) {
                smallest = right;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    /// Restores the heap property around index `i` after its key changed or
    /// another member was moved there.
    fn settle(&mut self, slots: &[ActivitySlot], i: usize) {
        if self.sift_up(slots, i) == i {
            self.sift_down(slots, i);
        }
    }

    /// Sets slot `u`'s projection and repositions (or inserts/removes) it.
    /// Infinite projections stay out of the heap entirely; unchanged
    /// projections are a no-op.
    pub(super) fn set(&mut self, slots: &mut [ActivitySlot], u: u32, proj: f64) {
        let old = std::mem::replace(&mut slots[u as usize].proj, proj);
        let pos = self.pos[u as usize];
        if proj.is_infinite() {
            if pos != NO_POS {
                self.remove(slots, u);
            }
        } else if pos == NO_POS {
            self.pos[u as usize] = self.heap.len() as u32;
            self.heap.push(u);
            self.sift_up(slots, self.heap.len() - 1);
        } else if proj.to_bits() != old.to_bits() {
            self.settle(slots, pos as usize);
        }
    }

    /// Removes slot `u` (it must be a member).
    pub(super) fn remove(&mut self, slots: &[ActivitySlot], u: u32) {
        let pos = self.unlink(u);
        if pos < self.heap.len() {
            self.settle(slots, pos);
        }
    }

    /// Takes member `u` out by moving the last entry into its place; returns
    /// the index that now holds a possibly misplaced entry.
    fn unlink(&mut self, u: u32) -> usize {
        let pos = self.pos[u as usize] as usize;
        self.heap.swap_remove(pos);
        self.pos[u as usize] = NO_POS;
        if let Some(&moved) = self.heap.get(pos) {
            self.pos[moved as usize] = pos as u32;
        }
        pos
    }

    /// Bulk half of [`CompletionHeap::set`]: stores slot `u`'s projection and
    /// fixes membership (appends a slot that enters, drops one whose
    /// projection became infinite) without sifting. The heap property is void
    /// until [`CompletionHeap::rebuild`] runs; `pos` stays exact throughout,
    /// so any number of these calls may precede it.
    pub(super) fn write_unsifted(&mut self, slots: &mut [ActivitySlot], u: u32, proj: f64) {
        slots[u as usize].proj = proj;
        let member = self.contains(u);
        if proj.is_infinite() {
            if member {
                self.unlink(u);
            }
        } else if !member {
            self.pos[u as usize] = self.heap.len() as u32;
            self.heap.push(u);
        }
    }

    /// Restores the heap property over the *whole* heap (Floyd's bottom-up
    /// construction, O(n)): a partial pass is not enough, because an unsifted
    /// write can misplace an entry against any ancestor or descendant.
    pub(super) fn rebuild(&mut self, slots: &[ActivitySlot]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(slots, i);
        }
    }

    /// Panics unless the heap property holds over `(proj, slot)`, `pos` is
    /// the inverse of `heap`, and the members are exactly the live slots with
    /// a finite projection.
    #[cfg(debug_assertions)]
    pub(super) fn assert_consistent(&self, slots: &[ActivitySlot]) {
        assert_eq!(self.pos.len(), slots.len());
        for (i, &u) in self.heap.iter().enumerate() {
            assert_eq!(
                self.pos[u as usize] as usize, i,
                "pos is not the inverse of heap"
            );
            assert!(
                i == 0 || !Self::less(slots, u, self.heap[(i - 1) / 2]),
                "heap property violated at index {i}"
            );
        }
        let mut members = 0;
        for (u, slot) in slots.iter().enumerate() {
            let expected = slot.live && slot.proj.is_finite();
            assert_eq!(self.contains(u as u32), expected, "membership of slot {u}");
            members += expected as usize;
        }
        assert_eq!(members, self.heap.len());
    }
}
