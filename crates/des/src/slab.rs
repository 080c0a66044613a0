//! A generation-tagged slab for state that exists only while something is
//! in flight.
//!
//! Per-entity state that means something for a bounded stretch of a run (a
//! job while it holds cores, say) does not belong in the per-entity table:
//! the table is as long as the workload, the live set is as large as the
//! platform. A [`Slab`] hands out zeroed slots, takes them back, and tags
//! every handle with the slot's generation, so a handle kept past its
//! slot's return misses instead of reading the next tenant's state.

/// Handle of a [`Slab`] slot, valid from `take` until `release`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// A handle that names no slot of any slab, ever.
    pub const NONE: SlotId = SlotId {
        index: u32::MAX,
        generation: 0,
    };
}

/// Slots of `T`, recycled through a free list; each is stored beside the
/// generation its current handle carries.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<(u32, T)>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Default> Slab<T> {
    /// Hands out a slot holding `T::default()` (a returned one if any).
    pub fn take(&mut self) -> SlotId {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, T::default()));
            (self.slots.len() - 1) as u32
        });
        let (generation, value) = &mut self.slots[index as usize];
        *value = T::default();
        SlotId {
            index,
            generation: *generation,
        }
    }
}

impl<T> Slab<T> {
    /// Takes a slot back; `id` and every copy of it are stale from here on.
    ///
    /// # Panics
    /// If `id` is stale already.
    pub fn release(&mut self, id: SlotId) {
        assert!(self.get(id).is_some(), "released a stale slot id");
        let generation = &mut self.slots[id.index as usize].0;
        *generation = generation.wrapping_add(1);
        self.free.push(id.index);
    }

    /// The slot `id` names; `None` for [`SlotId::NONE`] and for a stale id.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let (generation, value) = self.slots.get(id.index as usize)?;
        (*generation == id.generation).then_some(value)
    }

    /// Mutable twin of [`Slab::get`].
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        let (generation, value) = self.slots.get_mut(id.index as usize)?;
        (*generation == id.generation).then_some(value)
    }

    /// Slots currently handed out.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::collections::HashMap;

    #[test]
    fn a_returned_slot_comes_back_zeroed_under_a_fresh_id() {
        let mut slab: Slab<u64> = Slab::default();
        let first = slab.take();
        *slab.get_mut(first).unwrap() = 7;
        slab.release(first);
        assert_eq!((slab.get(first), slab.live()), (None, 0));
        let second = slab.take();
        assert_ne!(first, second, "same slot, new generation");
        assert_eq!((slab.get(second), slab.get(first)), (Some(&0), None));
        assert_eq!(slab.get(SlotId::NONE), None);
    }

    #[test]
    #[should_panic(expected = "stale slot id")]
    fn releasing_twice_is_caught() {
        let mut slab: Slab<u64> = Slab::default();
        let id = slab.take();
        slab.release(id);
        slab.release(id);
    }

    #[test]
    fn matches_a_hash_map_under_random_churn() {
        // Reference twin: a map from a running ticket number to the value,
        // plus every handle ever handed out to check that stale ones miss.
        let mut slab: Slab<u64> = Slab::default();
        let mut reference: HashMap<u64, (SlotId, u64)> = HashMap::new();
        let mut retired: Vec<SlotId> = Vec::new();
        let mut rng = Rng::new(5);
        let mut high_water = 0;
        for ticket in 0..5_000u64 {
            if reference.len() < 40 && rng.chance(0.55) {
                let id = slab.take();
                assert_eq!(slab.get(id), Some(&0));
                *slab.get_mut(id).unwrap() = ticket;
                reference.insert(ticket, (id, ticket));
            } else if let Some(&victim) = reference.keys().min() {
                let (id, _) = reference.remove(&victim).unwrap();
                slab.release(id);
                retired.push(id);
            }
            high_water = high_water.max(reference.len());
            assert_eq!(slab.live(), reference.len());
            for (id, value) in reference.values() {
                assert_eq!(slab.get(*id), Some(value));
            }
        }
        assert!(retired.iter().all(|&id| slab.get(id).is_none()));
        assert_eq!(slab.slots.len(), high_water, "bounded by the live peak");
    }
}
