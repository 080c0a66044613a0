//! Slab-parallel secondary map keyed by [`ActivityId`].

use super::ActivityId;

/// A secondary map keyed by [`ActivityId`], slab-parallel to
/// [`FluidModel`](super::FluidModel).
///
/// Stores one value per live activity in a dense `Vec` indexed by the id's
/// slot, with the generation recorded alongside so stale ids miss instead of
/// aliasing a recycled slot. This replaces `HashMap<ActivityId, T>` in
/// consumers (the simulation core keeps its per-activity `(job, phase)`
/// bookkeeping here): lookups are O(1) index arithmetic and iteration-free,
/// and no hashing ever happens on the per-event path.
#[derive(Debug, Clone)]
pub struct ActivityMap<T> {
    entries: Vec<Option<(u32, T)>>,
    len: usize,
}

impl<T> Default for ActivityMap<T> {
    fn default() -> Self {
        ActivityMap {
            entries: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ActivityMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Associates `value` with `id`, returning the previous value for the
    /// same id. A value left behind by a stale id on the same slot is
    /// discarded silently.
    pub fn insert(&mut self, id: ActivityId, value: T) -> Option<T> {
        let idx = id.slot() as usize;
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, || None);
        }
        let previous = self.entries[idx].take();
        self.entries[idx] = Some((id.generation(), value));
        match previous {
            Some((generation, old)) if generation == id.generation() => Some(old),
            Some(_) => None, // overwrote a stale entry; occupancy unchanged
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// The value associated with `id`, if current.
    pub fn get(&self, id: ActivityId) -> Option<&T> {
        match self.entries.get(id.slot() as usize)? {
            Some((generation, value)) if *generation == id.generation() => Some(value),
            _ => None,
        }
    }

    /// Removes and returns the value associated with `id`, if current.
    pub fn remove(&mut self, id: ActivityId) -> Option<T> {
        let entry = self.entries.get_mut(id.slot() as usize)?;
        match entry {
            Some((generation, _)) if *generation == id.generation() => {
                self.len -= 1;
                entry.take().map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidModel;

    #[test]
    fn activity_map_tracks_generations() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let mut map: ActivityMap<&str> = ActivityMap::new();

        let a = m.add_activity(1e6, &[link]);
        assert_eq!(map.insert(a, "first"), None);
        assert_eq!(map.get(a), Some(&"first"));
        assert_eq!(map.len(), 1);

        m.remove_activity(a).unwrap();
        let b = m.add_activity(1e6, &[link]);
        assert_eq!(b.slot(), a.slot(), "slot is recycled");

        // The stale id no longer resolves; the new id takes over the slot.
        assert_eq!(map.insert(b, "second"), None);
        assert_eq!(map.len(), 1, "stale entry replaced, not accumulated");
        assert_eq!(map.get(a), None);
        assert_eq!(map.remove(a), None);
        assert_eq!(map.remove(b), Some("second"));
        assert!(map.is_empty());
    }
}
